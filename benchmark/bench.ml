(* Closed-loop transaction benchmark for one Hyder server.

   One thread drives the server the way its callers do: [Ycsb] generates
   a transaction's operations, [Executor] runs them against the
   pipeline's last committed state, [Codec.Encoder] serializes the
   intention, and [Pipeline.submit_wire_batch] melds it in log order.
   [in_flight] executed transactions are always waiting to be melded;
   they stand in for the paper's concurrent executors, and they are what
   gives every intention a conflict zone.  Each layer is timed from
   outside, around the public call into it. *)

open Hyder_tree
module Clock = Hyder_util.Clock
module Sample = Hyder_util.Stats.Sample
module Summary = Hyder_util.Stats.Summary
module Ycsb = Hyder_workload.Ycsb
module Executor = Hyder_core.Executor
module Pipeline = Hyder_core.Pipeline
module Counters = Hyder_core.Counters
module Runtime = Hyder_core.Runtime
module State_store = Hyder_core.State_store
module Oracle = Hyder_core.Oracle
module Codec = Hyder_codec.Codec
module Intention = Hyder_codec.Intention
module Flight = Hyder_obs.Flight
module Metrics = Hyder_obs.Metrics
module Json = Hyder_obs.Json

let in_flight = 256
let slab = 64
let prune_every = 1024
let prune_keep = 384
let default_seed = 42

(* Rounds (slabs of [slab] transactions) of warm-up before the measured
   window, and rounds covered by the output check's digests.  Both are
   fixed counts, so the digests are a pure function of the seed however
   long the window runs. *)
let warmup_rounds = 64
let check_rounds = 128

type workload = {
  name : string;
  ycsb : Ycsb.config;
  config : Pipeline.config;
  runtime : Runtime.backend;
}

let ycsb ~keys ~updates distribution isolation =
  {
    Ycsb.default with
    record_count = keys;
    payload_size = 128;
    ops_per_txn = 10;
    update_fraction = float_of_int updates /. 10.0;
    distribution;
    isolation;
  }

let sr_1m = ycsb ~keys:1_000_000 ~updates:2 Ycsb.Uniform Intention.Serializable

let workloads =
  [
    {
      name = "sr-opt-1m";
      ycsb = sr_1m;
      config = Pipeline.with_both;
      runtime = Runtime.sequential;
    };
    {
      name = "sr-opt-1m-pipe";
      ycsb = sr_1m;
      config = Pipeline.with_both;
      runtime = Runtime.pipelined ~domains:1;
    };
    {
      name = "si-plain-50k";
      ycsb =
        ycsb ~keys:50_000 ~updates:2 Ycsb.Uniform
          Intention.Snapshot_isolation;
      config = Pipeline.plain;
      runtime = Runtime.sequential;
    };
    {
      name = "hot-write-50k";
      ycsb =
        ycsb ~keys:50_000 ~updates:5 (Ycsb.Hotspot 0.2) Intention.Serializable;
      config = Pipeline.with_both;
      runtime = Runtime.sequential;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* Domains the run occupies: the loop's own thread plus pipelined
   workers. *)
let domains_used w =
  match w.runtime with
  | Runtime.Pipelined { domains; _ } | Runtime.Parallel { domains } ->
      1 + domains
  | Runtime.Sequential -> 1

(* ---------------------------------------------------------------------- *)
(* The loop                                                                 *)
(* ---------------------------------------------------------------------- *)

(* Per-position records live in a ring indexed by log position; it must
   hold every executed but undecided transaction: the in-flight window,
   the slab being executed, and a group-meld member held back. *)
let ring = 1024
let mask = ring - 1

type span = {
  sp_pos : int;
  sp_begin : float;
  sp_exec : float;
  sp_enc : float;
  sp_sub : float;
  sp_dec : float;
}

type t = {
  w : workload;
  y : Ycsb.t;
  p : Pipeline.t;
  enc : Codec.Encoder.t;
  check_at : int;  (** round after which the digests are taken *)
  mutable rounds : int;
  mutable next_pos : int;  (** next log position to execute *)
  mutable next_submit : int;  (** oldest executed, unsubmitted position *)
  mutable next_decide : int;  (** oldest undecided position *)
  ops : Ycsb.op list array;
  snap : int array;
  t_begin : float array;
  t_exec : float array;  (** executor finished, encoding starts *)
  t_enc : float array;  (** encoded, waiting in the in-flight window *)
  t_sub : float array;  (** start of the submit call that carried it *)
  wire : string array;
  (* Output check.  [last_writer] is the newest committed writer of each
     key, fed with the pipeline's own decisions: no committed
     transaction may have a committed writer of a key it validates
     inside its conflict zone.  Without premeld or group meld the
     decisions must also equal the textbook OCC oracle's. *)
  last_writer : int array;
  oracle : Oracle.t option;
  mutable failures : int;
  mutable first_failure : string;
  decisions : Buffer.t;
  mutable decisions_digest : string;
  mutable check_tree : Tree.t;
  mutable check_decided : int;  (** decisions the digests cover *)
  mutable warm_decided : int;  (** decisions before the window *)
  (* Window tallies and layer timers, zeroed by [start_window]. *)
  mutable lat : Sample.t;
  mutable committed : int;
  mutable aborted : int;
  aborts_at : int array;  (** by [decided_at]: pm, gm, fm *)
  mutable gen_s : float;
  mutable exec_s : float;
  mutable enc_s : float;
  mutable enc_bytes : int;
  mutable encoded : int;
  mutable submit_s : float;
  mutable prune_s : float;
  mutable window_wait_s : float;
  (* Spans kept for the Chrome export of a traced run. *)
  mutable keep_spans : int;
  mutable spans : span list;
  mutable pipe_spans : (string * float * float) list;
}

let isolation st = st.w.ycsb.Ycsb.isolation

let fail st msg =
  if st.failures = 0 then st.first_failure <- msg;
  st.failures <- st.failures + 1

let create ?(flight = Flight.disabled) ?(check_at = check_rounds) w ~seed =
  let y = Ycsb.create ~seed:(Int64.of_int seed) w.ycsb in
  let genesis = Tree.of_sorted_array (Ycsb.genesis_array y) in
  let p =
    Pipeline.create ~config:w.config ~runtime:w.runtime ~flight ~genesis ()
  in
  let plain =
    w.config.Pipeline.premeld = None && w.config.Pipeline.group_size = 1
  in
  {
    w;
    y;
    p;
    enc = Codec.Encoder.create ();
    check_at;
    rounds = 0;
    next_pos = 0;
    next_submit = 0;
    next_decide = 0;
    ops = Array.make ring [];
    snap = Array.make ring 0;
    t_begin = Array.make ring 0.0;
    t_exec = Array.make ring 0.0;
    t_enc = Array.make ring 0.0;
    t_sub = Array.make ring 0.0;
    wire = Array.make ring "";
    last_writer = Array.make w.ycsb.Ycsb.record_count (-1);
    oracle = (if plain then Some (Oracle.create ()) else None);
    failures = 0;
    first_failure = "";
    decisions = Buffer.create 65536;
    decisions_digest = "";
    check_tree = Tree.empty;
    check_decided = 0;
    warm_decided = 0;
    lat = Sample.create ();
    committed = 0;
    aborted = 0;
    aborts_at = Array.make 3 0;
    gen_s = 0.0;
    exec_s = 0.0;
    enc_s = 0.0;
    enc_bytes = 0;
    encoded = 0;
    submit_s = 0.0;
    prune_s = 0.0;
    window_wait_s = 0.0;
    keep_spans = 0;
    spans = [];
    pipe_spans = [];
  }

let check st (d : Pipeline.decision) =
  let pos = d.Pipeline.pos in
  if pos <> st.next_decide || d.Pipeline.seq <> pos then
    fail st
      (Printf.sprintf "decision for position %d (seq %d) out of order, \
                       expected %d" pos d.Pipeline.seq st.next_decide);
  st.next_decide <- pos + 1;
  let i = pos land mask in
  let ops = st.ops.(i) and snap = st.snap.(i) in
  let reads = Ycsb.reads_of ops and writes = Ycsb.writes_of ops in
  let validated =
    match isolation st with
    | Intention.Serializable -> List.rev_append reads writes
    | Intention.Snapshot_isolation | Intention.Read_committed -> writes
  in
  let committed = d.Pipeline.committed in
  if committed && List.exists (fun k -> st.last_writer.(k) > snap) validated
  then
    fail st
      (Printf.sprintf "position %d committed over a conflicting write" pos);
  (match st.oracle with
  | Some o ->
      if
        Oracle.decide o ~snapshot_seq:snap ~isolation:(isolation st) ~reads
          ~writes
        <> committed
      then
        fail st
          (Printf.sprintf "position %d: pipeline %s, OCC oracle disagrees" pos
             (if committed then "committed" else "aborted"))
  | None -> ());
  if committed then List.iter (fun k -> st.last_writer.(k) <- pos) writes;
  if st.rounds < st.check_at then begin
    Buffer.add_string st.decisions (string_of_int pos);
    Buffer.add_char st.decisions (if committed then 'c' else 'a')
  end

let decide st ~now (d : Pipeline.decision) =
  check st d;
  let i = d.Pipeline.pos land mask in
  Sample.add st.lat (now -. st.t_begin.(i));
  if d.Pipeline.committed then st.committed <- st.committed + 1
  else begin
    st.aborted <- st.aborted + 1;
    let k =
      match d.Pipeline.decided_at with
      | Pipeline.At_premeld -> 0
      | Pipeline.At_group_meld -> 1
      | Pipeline.At_final_meld -> 2
    in
    st.aborts_at.(k) <- st.aborts_at.(k) + 1
  end;
  if st.keep_spans > 0 then begin
    st.keep_spans <- st.keep_spans - 1;
    st.spans <-
      {
        sp_pos = d.Pipeline.pos;
        sp_begin = st.t_begin.(i);
        sp_exec = st.t_exec.(i);
        sp_enc = st.t_enc.(i);
        sp_sub = st.t_sub.(i);
        sp_dec = now;
      }
      :: st.spans
  end

(* The state at the check point is only kept here: [Tree.digest] of a
   1M-key tree takes seconds and a buffer of hundreds of MB, so
   [tree_digest] runs once the measured window and its peak-memory
   reading are over. *)
let take_check_point st =
  st.decisions_digest <-
    Digest.to_hex (Digest.string (Buffer.contents st.decisions));
  Buffer.reset st.decisions;
  st.check_decided <- st.next_decide;
  let _, _, tree = Pipeline.lcs st.p in
  st.check_tree <- tree

let tree_digest st = Tree.digest st.check_tree

let pipe_span st name t0 t1 =
  if st.keep_spans > 0 then st.pipe_spans <- (name, t0, t1) :: st.pipe_spans

(* One slab: execute and encode [slab] transactions against the last
   committed state, then meld the oldest slab once more than [in_flight]
   are waiting. *)
let round st =
  let g0 = Clock.now () in
  let txns = Array.init slab (fun _ -> Ycsb.next_write_txn st.y) in
  st.gen_s <- st.gen_s +. Clock.elapsed g0;
  let _, snapshot_pos, snapshot = Pipeline.lcs st.p in
  let isolation = isolation st in
  Array.iter
    (fun ops ->
      let pos = st.next_pos in
      let i = pos land mask in
      let t0 = Clock.now () in
      let e =
        Executor.begin_txn ~snapshot_pos ~snapshot ~server:0 ~txn_seq:pos
          ~isolation ()
      in
      Ycsb.apply ops e;
      let draft =
        match Executor.finish e with
        | Some d -> d
        | None -> failwith "Bench.round: read-only transaction"
      in
      let t1 = Clock.now () in
      let wire = Codec.Encoder.encode st.enc draft in
      let t2 = Clock.now () in
      st.exec_s <- st.exec_s +. (t1 -. t0);
      st.enc_s <- st.enc_s +. (t2 -. t1);
      st.enc_bytes <- st.enc_bytes + String.length wire;
      st.encoded <- st.encoded + 1;
      st.ops.(i) <- ops;
      st.snap.(i) <- snapshot_pos;
      st.t_begin.(i) <- t0;
      st.t_exec.(i) <- t1;
      st.t_enc.(i) <- t2;
      st.wire.(i) <- wire;
      st.next_pos <- pos + 1)
    txns;
  if st.next_pos - st.next_submit > in_flight then begin
    let first = st.next_submit in
    st.next_submit <- first + slab;
    let s0 = Clock.now () in
    let batch =
      List.init slab (fun k ->
          let pos = first + k in
          let i = pos land mask in
          st.t_sub.(i) <- s0;
          st.window_wait_s <- st.window_wait_s +. (s0 -. st.t_enc.(i));
          (pos, st.wire.(i)))
    in
    let decisions = Pipeline.submit_wire_batch st.p batch in
    let s1 = Clock.now () in
    st.submit_s <- st.submit_s +. (s1 -. s0);
    pipe_span st "pipeline.submit" s0 s1;
    List.iter (decide st ~now:s1) decisions;
    for k = 0 to slab - 1 do
      st.wire.((first + k) land mask) <- ""
    done;
    if st.next_submit / prune_every <> first / prune_every then begin
      let p0 = Clock.now () in
      Pipeline.prune st.p ~keep:prune_keep;
      let p1 = Clock.now () in
      st.prune_s <- st.prune_s +. (p1 -. p0);
      pipe_span st "pipeline.prune" p0 p1
    end
  end;
  st.rounds <- st.rounds + 1;
  if st.rounds = st.check_at then take_check_point st

let start_window st =
  st.warm_decided <- st.next_decide;
  st.lat <- Sample.create ();
  st.committed <- 0;
  st.aborted <- 0;
  Array.fill st.aborts_at 0 3 0;
  st.gen_s <- 0.0;
  st.exec_s <- 0.0;
  st.enc_s <- 0.0;
  st.enc_bytes <- 0;
  st.encoded <- 0;
  st.submit_s <- 0.0;
  st.prune_s <- 0.0;
  st.window_wait_s <- 0.0

(** Decision and tree digests of the first [rounds] rounds of a stream,
    with no timing: the determinism tests' entry point. *)
let digests w ~seed ~rounds =
  let st = create ~check_at:rounds w ~seed in
  Fun.protect
    ~finally:(fun () -> Pipeline.shutdown st.p)
    (fun () ->
      for _ = 1 to rounds do
        round st
      done;
      if st.failures > 0 then failwith st.first_failure;
      (st.decisions_digest, tree_digest st))

let with_keys w keys = { w with ycsb = { w.ycsb with Ycsb.record_count = keys } }

(* ---------------------------------------------------------------------- *)
(* Measured windows and their metrics                                       *)
(* ---------------------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(* The window is cut into slices of about [slice_s] seconds, each with
   its own throughput and latency percentiles.  Every workload decides
   at least 3k transactions a second, so a slice spans at least three
   prunes and puts at least 30 latency samples beyond its p99. *)
let slice_s = 1.0

type slice = { tps : float; p50 : float; p99 : float }

type window = {
  slices : slice list;
  c0 : Counters.t;
  c1 : Counters.t;
  off0 : Pipeline.offload_stats option;
  off1 : Pipeline.offload_stats option;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

let warm_up st =
  for _ = 1 to warmup_rounds do
    round st
  done

(* Run rounds for at least [seconds] of measured time, and at least up
   to the check prefix so every run takes the same digests. *)
let measure st ~seconds =
  start_window st;
  let c0 = Counters.copy (Pipeline.counters st.p) in
  let off0 = Pipeline.offload st.p in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let _, promoted0, _ = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let slices = max 1 (Float.to_int (Float.round (seconds /. slice_s))) in
  let slice_s = seconds /. float_of_int slices in
  let t0 = Clock.now () in
  let closed = ref [] and s0 = ref t0 and committed0 = ref 0 in
  while List.length !closed < slices || st.rounds < st.check_at do
    round st;
    let now = Clock.now () in
    if now -. !s0 >= slice_s && Sample.count st.lat > 0 then begin
      closed :=
        {
          tps = float_of_int (st.committed - !committed0) /. (now -. !s0);
          p50 = Sample.percentile st.lat 50.0;
          p99 = Sample.percentile st.lat 99.0;
        }
        :: !closed;
      st.lat <- Sample.create ();
      s0 := now;
      committed0 := st.committed
    end
  done;
  let minor1 = Gc.minor_words () in
  let _, promoted1, _ = Gc.counters () in
  let c1 = Counters.copy (Pipeline.counters st.p) in
  if c1.Counters.committed - c0.Counters.committed <> st.committed
     || c1.Counters.aborted - c0.Counters.aborted <> st.aborted
  then fail st "pipeline counters disagree with the decisions returned";
  {
    slices = List.rev !closed;
    c0;
    c1;
    off0;
    off1 = Pipeline.offload st.p;
    minor_words = minor1 -. minor0;
    promoted_words = promoted1 -. promoted0;
    major_collections = (Gc.quick_stat ()).Gc.major_collections - major0;
  }

let attempted st = st.committed + st.aborted

(* Stage seconds from the pipeline's counters: total (every domain) and
   the share the loop's own thread executed. *)
let stage_seconds win =
  let d f = f win.c1 -. f win.c0 in
  let s f c = (f c).Counters.seconds in
  let ds = d (s (fun c -> c.Counters.deserialize))
  and pm = d (s Counters.premeld_total)
  and gm = d (s (fun c -> c.Counters.group_meld))
  and fm = d (s (fun c -> c.Counters.final_meld)) in
  let worker f =
    match (win.off0, win.off1) with
    | Some a, Some b -> f b -. f a
    | _ -> 0.0
  in
  let wds = worker (fun o -> o.Pipeline.worker_ds_seconds)
  and wpm = worker (fun o -> o.Pipeline.worker_pm_seconds)
  and wgm = worker (fun o -> o.Pipeline.worker_gm_seconds) in
  ((ds, pm, gm, fm), (wds, wpm, wgm), ds +. pm +. gm +. fm -. wds -. wpm -. wgm)

let layer_metrics st win ~load_s ~retained =
  let n = float_of_int (attempted st) in
  let us x = x /. n *. 1e6 in
  let per x = float_of_int x /. n in
  let (ds, pm, gm, fm), (wds, wpm, wgm), driver = stage_seconds win in
  let count f = per (f win.c1 - f win.c0) in
  let nodes f = count (fun c -> (f c).Counters.nodes_visited) in
  let all_stages g =
    count (fun c ->
        g c.Counters.deserialize + g (Counters.premeld_total c)
        + g c.Counters.group_meld + g c.Counters.final_meld)
  in
  let cz =
    let a = win.c1.Counters.conflict_zone and b = win.c0.Counters.conflict_zone in
    let k = Summary.count a - Summary.count b in
    if k = 0 then 0.0 else (Summary.total a -. Summary.total b) /. float_of_int k
  in
  let share k =
    if st.aborted = 0 then 0.0
    else float_of_int st.aborts_at.(k) /. float_of_int st.aborted
  in
  (* Handoff and worker metrics exist only under a pipelined runtime. *)
  let offload =
    match (win.off0, win.off1) with
    | Some a, Some b ->
        let off f = f b - f a in
        let ratio x y = if y = 0 then 0.0 else float_of_int x /. float_of_int y in
        let ds_off = off (fun o -> o.Pipeline.ds_offloaded)
        and ds_inl = off (fun o -> o.Pipeline.ds_inline) in
        [
          metric "pipeline.driver_us" "us" (us driver);
          metric "runtime.ds_offload_share" "ratio"
            (ratio ds_off (ds_off + ds_inl));
          metric "runtime.items_per_publication" "count"
            (ratio
               (off (fun o -> o.Pipeline.handoff_items))
               (off (fun o -> o.Pipeline.handoff_batches)));
          metric "runtime.doorbells" "count"
            (per (off (fun o -> o.Pipeline.doorbell_wakeups)));
          metric "runtime.steals" "count"
            (per (off (fun o -> o.Pipeline.driver_steals)));
          metric "runtime.worker_ds_us" "us" (us wds);
          metric "runtime.worker_pm_us" "us" (us wpm);
          metric "runtime.worker_gm_us" "us" (us wgm);
        ]
    | _ -> []
  in
  [
    metric "executor.busy_us" "us" (us st.exec_s);
    metric "codec.encode_us" "us" (us st.enc_s);
    metric "codec.bytes" "B"
      (float_of_int st.enc_bytes /. float_of_int (max 1 st.encoded));
    metric "pipeline.submit_us" "us" (us st.submit_s);
    metric "pipeline.prune_us" "us" (us st.prune_s);
    metric "pipeline.ds_us" "us" (us ds);
    metric "pipeline.pm_us" "us" (us pm);
    metric "pipeline.gm_us" "us" (us gm);
    metric "pipeline.fm_us" "us" (us fm);
    metric "pipeline.abort_rate" "ratio" (float_of_int st.aborted /. n);
    metric "pipeline.abort_share_pm" "ratio" (share 0);
    metric "pipeline.abort_share_gm" "ratio" (share 1);
    metric "pipeline.abort_share_fm" "ratio" (share 2);
    metric "meld.fm_nodes" "count" (nodes (fun c -> c.Counters.final_meld));
    metric "meld.pm_nodes" "count" (nodes Counters.premeld_total);
    metric "meld.gm_nodes" "count" (nodes (fun c -> c.Counters.group_meld));
    metric "meld.ephemerals" "count"
      (all_stages (fun s -> s.Counters.ephemerals));
    metric "meld.grafts" "count" (all_stages (fun s -> s.Counters.grafts));
    metric "meld.conflict_zone" "count" cz;
    metric "gc.minor_words" "words" (win.minor_words /. n);
    metric "gc.promoted_words" "words" (win.promoted_words /. n);
    metric "gc.major_collections" "count" (float_of_int win.major_collections);
    metric "state_store.retained" "count" (float_of_int retained);
    metric "load_s" "s" load_s;
    metric "ycsb.gen_us" "us" (us st.gen_s);
  ]
  @ offload

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line -> (
            match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
            | kb -> float_of_int kb /. 1024.0
            | exception (Scanf.Scan_failure _ | End_of_file | Failure _) ->
                scan ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let k = Array.length a in
  if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

(* Nearest-rank [q]-quantile, [q] in [0, 1]. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let k = Array.length a in
  a.(max 0 (min (k - 1) (Float.to_int (Float.ceil (q *. float_of_int k)) - 1)))

(* Slice statistics reported end to end.  On a shared host, outside load
   slows stretches of a run by 10-35% for several seconds at a time, and
   a median over slices moves with it once such stretches cover half the
   window.  The [fast_q] quantile of slice throughput, and the
   [1 - fast_q] quantile of slice latency, is what the server sustained
   for a quarter of the window. *)
let fast_q = 0.75
let slice_tps win = quantile fast_q (List.map (fun s -> s.tps) win.slices)
let slice_ms f win = 1e3 *. quantile (1.0 -. fast_q) (List.map f win.slices)

type report = {
  warmup_txns : int;
  check_txns : int;
  measured_txns : int;
  committed_txns : int;
  aborted_txns : int;
  decisions_digest : string;
  tree_digest : string;
  failures : int;
  first_failure : string;
  commit_tps : float;
  end_to_end : metric list;
  per_layer : metric list;
  slices : slice list;
}

let report_of st win ~e2e ~per_layer =
  {
    warmup_txns = st.warm_decided;
    check_txns = st.check_decided;
    measured_txns = attempted st;
    committed_txns = st.committed;
    aborted_txns = st.aborted;
    decisions_digest = st.decisions_digest;
    tree_digest = tree_digest st;
    failures = st.failures;
    first_failure = st.first_failure;
    commit_tps = slice_tps win;
    end_to_end = e2e;
    per_layer;
    slices = win.slices;
  }

(** Untraced run: [setups] full set-ups (genesis, [Pipeline.create],
    warm-up) of which the last continues into the measured window. *)
let run (w : workload) ~seed ~seconds ~setups =
  let setup () =
    let t0 = Clock.now () in
    let st = create w ~seed in
    let load = Clock.elapsed t0 in
    warm_up st;
    (st, load, Clock.elapsed t0)
  in
  let rec go k loads totals =
    let st, load, total = setup () in
    if k <= 1 then (st, load :: loads, total :: totals)
    else begin
      Pipeline.shutdown st.p;
      Gc.full_major ();
      go (k - 1) (load :: loads) (total :: totals)
    end
  in
  let st, loads, totals = go setups [] [] in
  Fun.protect
    ~finally:(fun () -> Pipeline.shutdown st.p)
    (fun () ->
      let win = measure st ~seconds in
      let n = float_of_int (attempted st) in
      let e2e =
        [
          metric "commit_tps" "1/s" (slice_tps win);
          metric "commit_share" "ratio" (float_of_int st.committed /. n);
          metric "commit_p50_ms" "ms" (slice_ms (fun s -> s.p50) win);
          metric "commit_p99_ms" "ms" (slice_ms (fun s -> s.p99) win);
          metric "setup_s" "s" (median totals);
          metric "peak_rss_mb" "MB" (peak_rss_mb ());
        ]
      in
      let per_layer =
        layer_metrics st win ~load_s:(median loads)
          ~retained:(State_store.retained (Pipeline.states st.p))
      in
      report_of st win ~e2e ~per_layer)

(* ---------------------------------------------------------------------- *)
(* Traced rerun                                                             *)
(* ---------------------------------------------------------------------- *)

(* Transactions of the traced window whose spans go into the Chrome
   export; the per-layer sums cover the whole window. *)
let span_limit = 2048

let num fields k =
  match List.assoc_opt k fields with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> 0.0

(* Nestable async events keyed by log position: the request id shared by
   the benchmark's spans and the flight recorder's. *)
let async ~origin ~pos name t0 t1 =
  let ev ph t =
    Json.Obj
      [
        ("name", Json.String name);
        ("cat", Json.String "txn");
        ("ph", Json.String ph);
        ("id", Json.Int pos);
        ("ts", Json.Float ((t -. origin) *. 1e6));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
      ]
  in
  [ ev "b" t0; ev "e" t1 ]

(* A flight record's wait/service chain, laid out from its submit time in
   stage order. *)
let flight_spans ~origin ~pos fields =
  let obj k = match List.assoc_opt k fields with Some (Json.Obj o) -> o | _ -> [] in
  let wait = obj "wait" and service = obj "service" in
  let t = ref (num fields "t_submit") in
  let span name d =
    if d <= 0.0 then []
    else begin
      let a = !t in
      t := a +. d;
      async ~origin ~pos name a !t
    end
  in
  List.concat_map
    (fun s ->
      let w = span (s ^ ".wait") (num wait s) in
      w @ span s (num service s))
    [ "ds"; "pm"; "gm"; "fm" ]

let flight_records path wanted =
  let found = Hashtbl.create (Hashtbl.length wanted) in
  In_channel.with_open_text path (fun ic ->
      let rec loop () =
        if Hashtbl.length found < Hashtbl.length wanted then
          match In_channel.input_line ic with
          | None -> ()
          | Some line ->
              (match Json.of_string line with
              | Json.Obj fields -> (
                  match List.assoc_opt "pos" fields with
                  | Some (Json.Int pos) when Hashtbl.mem wanted pos ->
                      Hashtbl.replace found pos fields
                  | _ -> ())
              | _ -> ());
              loop ()
      in
      loop ());
  found

let write_chrome st ~flight_path ~path =
  match List.rev st.spans with
  | [] -> ()
  | first :: _ as spans ->
      let origin = first.sp_begin in
      let wanted = Hashtbl.create span_limit in
      List.iter (fun s -> Hashtbl.replace wanted s.sp_pos ()) spans;
      let flights = flight_records flight_path wanted in
      let txn_events s =
        let pos = s.sp_pos in
        let span name a b = async ~origin ~pos name a b in
        span "txn" s.sp_begin s.sp_dec
        @ span "executor" s.sp_begin s.sp_exec
        @ span "codec.encode" s.sp_exec s.sp_enc
        @ span "window.wait" s.sp_enc s.sp_sub
        @ span "pipeline.submit" s.sp_sub s.sp_dec
        @
        match Hashtbl.find_opt flights pos with
        | Some r -> flight_spans ~origin ~pos r
        | None -> []
      in
      let pipe_event (name, a, b) =
        Json.Obj
          [
            ("name", Json.String name);
            ("ph", Json.String "X");
            ("ts", Json.Float ((a -. origin) *. 1e6));
            ("dur", Json.Float ((b -. a) *. 1e6));
            ("pid", Json.Int 1);
            ("tid", Json.Int 2);
          ]
      in
      let events =
        List.concat_map txn_events spans
        @ List.rev_map pipe_event st.pipe_spans
      in
      Out_channel.with_open_text path (fun oc ->
          Json.to_channel oc
            (Json.Obj
               [
                 ("traceEvents", Json.List events);
                 ("displayTimeUnit", Json.String "ms");
               ]))

(** Rerun of [w] with spans kept in memory and the flight recorder on,
    written to [dir] as [<workload>.trace.json] (Chrome trace events) and
    [<workload>.flight.jsonl] (flight records).  Reports each layer's
    self time and wait per attempted transaction, and [trace.overhead]
    against the untraced run's [commit_tps]. *)
let traced (w : workload) ~seed ~seconds ~dir ~untraced_tps =
  let base = Filename.concat dir w.name in
  let flight_path = base ^ ".flight.jsonl" in
  let sink = open_out flight_path in
  let metrics = Metrics.create () in
  let flight = Flight.create ~label:w.name ~metrics ~sink () in
  let st = create ~flight w ~seed in
  let win, fl =
    Fun.protect
      ~finally:(fun () ->
        Pipeline.shutdown st.p;
        close_out sink)
      (fun () ->
        warm_up st;
        let m0 = Metrics.snapshot metrics in
        st.keep_spans <- span_limit;
        let win = measure st ~seconds in
        (win, Metrics.diff ~base:m0 (Metrics.snapshot metrics)))
  in
  write_chrome st ~flight_path ~path:(base ^ ".trace.json");
  let n = float_of_int (attempted st) in
  let us x = x /. n *. 1e6 in
  let flight_us stage kind =
    match List.assoc_opt (Printf.sprintf "flight_%s_%s_us" stage kind) fl with
    | Some (Metrics.Histogram_v h) -> h.sum /. n
    | _ -> 0.0
  in
  let _, _, driver = stage_seconds win in
  let tps = slice_tps win in
  let layers =
    [
      metric "trace.txn.wait_us" "us" (us st.window_wait_s);
      metric "trace.executor.self_us" "us" (us st.exec_s);
      metric "trace.codec.encode.self_us" "us" (us st.enc_s);
      metric "trace.pipeline.submit.self_us" "us" (us (st.submit_s -. driver));
      metric "trace.pipeline.prune.self_us" "us" (us st.prune_s);
    ]
    @ List.concat_map
        (fun s ->
          [
            metric (Printf.sprintf "trace.%s.self_us" s) "us"
              (flight_us s "service");
            metric (Printf.sprintf "trace.%s.wait_us" s) "us"
              (flight_us s "wait");
          ])
        [ "ds"; "pm"; "gm"; "fm" ]
    @ [ metric "trace.overhead" "ratio" (1.0 -. (tps /. untraced_tps)) ]
  in
  report_of st win ~e2e:[] ~per_layer:layers
