(* The Runtime contract (Section 3.4): scheduling pipeline stages onto
   domains changes wall-clock and nothing else.  Sequential and Pipelined
   backends must produce identical commit/abort decisions, identical
   ephemeral node identities (checked via physical tree equality), and
   identical premeld work counts, over randomized histories including
   group_size > 1 and premeld distance > 1.  Also unit-tests the stage
   pool, the Clock and the runtime descriptors. *)

module Tree = Hyder_tree.Tree
module Pipeline = Hyder_core.Pipeline
module Premeld = Hyder_core.Premeld
module Runtime = Hyder_core.Runtime
module Counters = Hyder_core.Counters
module Executor = Hyder_core.Executor
module I = Hyder_codec.Intention
module Codec = Hyder_codec.Codec
module Clock = Hyder_util.Clock
module Rng = Hyder_util.Rng
module Replica = Hyder_cluster.Replica

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let genesis_n = 2000

(* Record a deterministic intention stream by running a sequential
   pipeline.  Snapshots lag 0..79 states behind the LCS, so the stream
   mixes premeld-skipped (designated state predates snapshot) with
   genuinely premeld-bound intentions; writes land in a small key range
   so real conflicts and aborts occur.

   The generator is wire-fed, like a real replica: each draft is encoded
   and the generator melds the *decoded* intention.  The log is the wire
   — executors take snapshots of wire-built states, so the payload
   elisions and version references the encoder emits resolve on any
   replica that replays the same bytes, and every replay world (decoded
   or re-fed with these same intention objects) evolves isomorphically
   to the generator's. *)
let make_stream ~config ~txns ~seed =
  let genesis = Helpers.genesis genesis_n in
  let rng = Rng.create (Int64.of_int seed) in
  let gen = Pipeline.create ~config ~genesis () in
  let history = ref [ (-1, genesis) ] (* newest first *) in
  let hist_len = ref 1 in
  let intentions = ref [] in
  let wires = ref [] in
  let next_pos = ref 0 in
  for txn_seq = 0 to txns - 1 do
    let lag = min (Rng.int rng 80) (!hist_len - 1) in
    let snapshot_pos, snapshot = List.nth !history lag in
    let isolation =
      if Rng.int rng 4 = 0 then I.Snapshot_isolation else I.Serializable
    in
    let e =
      Executor.begin_txn ~snapshot_pos ~snapshot ~server:0 ~txn_seq ~isolation
        ()
    in
    for _ = 1 to Rng.int rng 3 do
      ignore (Executor.read e (Rng.int rng genesis_n))
    done;
    for _ = 1 to 1 + Rng.int rng 2 do
      Executor.write e (Rng.int rng genesis_n) (Printf.sprintf "w%d" txn_seq)
    done;
    match Executor.finish e with
    | None -> ()
    | Some draft ->
        next_pos := !next_pos + 1 + Rng.int rng 2;
        let src = Codec.encode draft in
        let intention = Pipeline.decode gen ~pos:!next_pos src in
        intentions := intention :: !intentions;
        wires := (!next_pos, src) :: !wires;
        ignore (Pipeline.submit gen intention);
        let _, pos, tree = Pipeline.lcs gen in
        history := (pos, tree) :: !history;
        incr hist_len
  done;
  ignore (Pipeline.flush gen);
  (genesis, List.rev !intentions, List.rev !wires)

let pm_counts p =
  Array.map
    (fun (s : Counters.stage) -> (s.Counters.intentions, s.Counters.nodes_visited))
    (Pipeline.counters p).Counters.premeld_shards

(* The in-memory baseline: replay the recorded intention objects through
   a sequential pipeline, one [submit] at a time. *)
let replay_submit ~config genesis intentions =
  let p = Pipeline.create ~config ~genesis () in
  let decisions =
    List.concat_map (Pipeline.submit p) intentions @ Pipeline.flush p
  in
  let _, _, final = Pipeline.lcs p in
  (decisions, final, pm_counts p)

let same_decision (a : Pipeline.decision) (b : Pipeline.decision) =
  a.Pipeline.seq = b.Pipeline.seq
  && a.Pipeline.pos = b.Pipeline.pos
  && a.Pipeline.committed = b.Pipeline.committed
  && a.Pipeline.reason = b.Pipeline.reason
  && a.Pipeline.decided_at = b.Pipeline.decided_at

(* Replay a recorded stream from its wire form, feeding
   [submit_wire_batch] in slabs of [slab] encoded intentions.  Also
   returns the digest of every integer counter (wall-clock seconds
   excluded). *)
let replay_wire ~config ~runtime ~slab genesis wires =
  let p = Pipeline.create ~config ~runtime ~genesis () in
  let rec take k acc = function
    | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
    | rest -> (List.rev acc, rest)
  in
  let rec go acc = function
    | [] -> acc
    | l ->
        let batch, rest = take slab [] l in
        go (List.rev_append (Pipeline.submit_wire_batch p batch) acc) rest
  in
  let decisions = List.rev (go [] wires) @ Pipeline.flush p in
  let _, _, final = Pipeline.lcs p in
  let counts = pm_counts p in
  let off = Pipeline.offload p in
  let digest = Replica.counters_digest (Pipeline.counters p) in
  Pipeline.shutdown p;
  (decisions, final, counts, off, digest)

let compare_to_baseline ~name ~bd ~bfinal ~bcounts (d, final, counts) =
  check (name ^ ": decision count") true (List.length d = List.length bd);
  check (name ^ ": decisions identical") true
    (List.for_all2 same_decision d bd);
  check (name ^ ": final state physically identical") true
    (Tree.physically_equal final bfinal);
  check (name ^ ": per-thread premeld work identical") true (counts = bcounts)

(* Every run replays the stream from its wire form.  Decisions must
   match the in-memory baseline exactly (the semantic contract), but trees
   and visit counters are compared against a wire-fed *sequential*
   baseline.  Meld's pointer-sharing shortcuts make the physical output
   depend on how the intention's outside pointers alias the replica's own
   state nodes, and a decoded stream aliases differently from an
   assign-fed one — what must hold is that every backend agrees
   bit-for-bit on the same feed. *)
let check_backends ~config ~txns ~seed ~runs () =
  let genesis, intentions, wires = make_stream ~config ~txns ~seed in
  check "stream not trivial" true (List.length intentions > txns / 2);
  let bd, _, bcounts = replay_submit ~config genesis intentions in
  check_int "every intention decided" (List.length intentions)
    (List.length bd);
  if config.Pipeline.premeld <> None then
    check "premeld actually ran" true
      (Array.exists (fun (n, _) -> n > 0) bcounts);
  let wd, wfinal, wcounts, _, _ =
    replay_wire ~config ~runtime:Runtime.sequential ~slab:max_int genesis wires
  in
  check "wire baseline: decision count" true (List.length wd = List.length bd);
  check "wire baseline: decisions identical to in-memory" true
    (List.for_all2 same_decision wd bd);
  List.iter
    (fun (name, runtime, slab) ->
      let d, final, counts, off, _ =
        replay_wire ~config ~runtime ~slab genesis wires
      in
      compare_to_baseline ~name ~bd:wd ~bfinal:wfinal ~bcounts:wcounts
        (d, final, counts);
      match off with
      | None -> ()
      | Some o ->
          check (name ^ ": every decode accounted") true
            (o.Pipeline.ds_offloaded + o.Pipeline.ds_inline
            = List.length intentions);
          check (name ^ ": queue depth bounded") true
            (o.Pipeline.max_queue_depth <= o.Pipeline.queue_capacity))
    runs

(* The paper's configuration: 5 premeld threads, distance 10, groups of
   2 — decodes keep waiting on states that a pending group member has
   not recorded yet.  Slab 256 is the batch size the
   macro benchmark feeds. *)
let test_paper_config () =
  check_backends
    ~config:
      {
        Pipeline.premeld = Some { Premeld.threads = 5; distance = 10 };
        group_size = 2;
      }
    ~txns:400 ~seed:7
    ~runs:
      [
        ("seq slab 1", Runtime.sequential, 1);
        ("seq slab 19", Runtime.sequential, 19);
        ("pipe:1", Runtime.pipelined ~domains:1, max_int);
        ("pipe:2", Runtime.pipelined ~domains:2, max_int);
        ("pipe:2 slab 1", Runtime.pipelined ~domains:2, 1);
        ("pipe:2 slab 37", Runtime.pipelined ~domains:2, 37);
        ("pipe:3 slab 23", Runtime.pipelined ~domains:3, 23);
        ("pipe:3 slab 37", Runtime.pipelined ~domains:3, 37);
        ("pipe:2 slab 256", Runtime.pipelined ~domains:2, 256);
        ("pipe:4", Runtime.pipelined ~domains:4, max_int);
      ]
    ()

let test_small_distance () =
  check_backends
    ~config:
      {
        Pipeline.premeld = Some { Premeld.threads = 2; distance = 1 };
        group_size = 1;
      }
    ~txns:300 ~seed:21
    ~runs:
      [
        ("pipe:2", Runtime.pipelined ~domains:2, max_int);
        ("pipe:2 slab 5", Runtime.pipelined ~domains:2, 5);
        ("pipe:4 slab 5", Runtime.pipelined ~domains:4, 5);
      ]
    ()

let test_big_groups () =
  check_backends
    ~config:
      {
        Pipeline.premeld = Some { Premeld.threads = 3; distance = 2 };
        group_size = 4;
      }
    ~txns:300 ~seed:33
    ~runs:
      [
        ("pipe:2", Runtime.pipelined ~domains:2, max_int);
        ("pipe:3", Runtime.pipelined ~domains:3, max_int);
        ("pipe:3 slab 11", Runtime.pipelined ~domains:3, 11);
      ]
    ()

(* group_size = threads*distance + 1, the largest group [create]
   accepts: just before a group completes, the state the next premeld is
   designated to read is the newest one recorded — and every backend
   must still match the inline scheduler bit for bit.  (Larger groups are rejected, see
   [test_invalid_stream_same_error].) *)
let test_group_at_window_bound () =
  check_backends
    ~config:
      {
        Pipeline.premeld = Some { Premeld.threads = 2; distance = 2 };
        group_size = 5;
      }
    ~txns:200 ~seed:55
    ~runs:
      [
        ("pipe:2", Runtime.pipelined ~domains:2, max_int);
        ("pipe:2 slab 3", Runtime.pipelined ~domains:2, 3);
      ]
    ()

let test_premeld_off () =
  check_backends
    ~config:{ Pipeline.premeld = None; group_size = 2 }
    ~txns:200 ~seed:77
    ~runs:
      [
        ("pipe:2", Runtime.pipelined ~domains:2, max_int);
        ("pipe:2 slab 7", Runtime.pipelined ~domains:2, 7);
      ]
    ()

(* One giant wire burst through the pipelined backend: the bounded SPSC
   queues must absorb it with backpressure (peak depth within capacity),
   work must actually be offloaded, and the decisions must still match
   the sequential baseline. *)
let test_pipelined_burst () =
  let config =
    {
      Pipeline.premeld = Some { Premeld.threads = 5; distance = 10 };
      group_size = 2;
    }
  in
  let genesis, intentions, wires = make_stream ~config ~txns:500 ~seed:11 in
  let bd, _, _ = replay_submit ~config genesis intentions in
  let wd, wfinal, wcounts, _, _ =
    replay_wire ~config ~runtime:Runtime.sequential ~slab:max_int genesis wires
  in
  check "burst wire baseline: decisions identical to in-memory" true
    (List.length wd = List.length bd && List.for_all2 same_decision wd bd);
  let d, final, counts, off, _ =
    replay_wire ~config
      ~runtime:(Runtime.pipelined ~domains:2)
      ~slab:max_int genesis wires
  in
  compare_to_baseline ~name:"burst pipe:2" ~bd:wd ~bfinal:wfinal
    ~bcounts:wcounts (d, final, counts);
  match off with
  | None -> Alcotest.fail "pipelined replay reported no offload stats"
  | Some o ->
      check "queues actually used" true (o.Pipeline.max_queue_depth > 0);
      check "queue depth bounded by capacity" true
        (o.Pipeline.max_queue_depth <= o.Pipeline.queue_capacity);
      check "some decodes offloaded" true (o.Pipeline.ds_offloaded > 0);
      check "every decode accounted" true
        (o.Pipeline.ds_offloaded + o.Pipeline.ds_inline
        = List.length intentions);
      check "worker ds time measured" true (o.Pipeline.worker_ds_seconds > 0.0)

(* The batched-handoff slab sweep, and with it the ownership rule for
   views crossing stage queues: worker-parsed views travel to the
   driver's premeld, group meld and final meld.
   Every feed of [pipe:<domains>] must equal the sequential baseline on
   decisions, physical trees and every integer counter, decodes must
   really leave the driver, and every decode must be accounted once. *)
let check_wire_sweep ~seed ~domains ~slabs =
  let config =
    {
      Pipeline.premeld = Some { Premeld.threads = 5; distance = 10 };
      group_size = 2;
    }
  in
  let genesis, intentions, wires = make_stream ~config ~txns:300 ~seed in
  let wd, wfinal, wcounts, _, wdigest =
    replay_wire ~config ~runtime:Runtime.sequential ~slab:max_int genesis wires
  in
  check_int "sweep baseline decided everything" (List.length intentions)
    (List.length wd);
  let runtime = Runtime.pipelined ~domains in
  List.iter
    (fun slab ->
      let name =
        Printf.sprintf "seed %d pipe:%d slab %d" seed domains
          (min slab 999_999)
      in
      let d, final, counts, off, digest =
        replay_wire ~config ~runtime ~slab genesis wires
      in
      compare_to_baseline ~name ~bd:wd ~bfinal:wfinal ~bcounts:wcounts
        (d, final, counts);
      Alcotest.(check string) (name ^ ": counters identical") wdigest digest;
      match off with
      | None -> Alcotest.fail (name ^ ": no offload stats")
      | Some o ->
          check (name ^ ": publications recorded") true
            (o.Pipeline.handoff_batches > 0);
          check (name ^ ": items cover publications") true
            (o.Pipeline.handoff_items >= o.Pipeline.handoff_batches);
          check (name ^ ": decodes offloaded") true
            (o.Pipeline.ds_offloaded > 0);
          check_int (name ^ ": every decode accounted once")
            (List.length intentions)
            (o.Pipeline.ds_offloaded + o.Pipeline.ds_inline))
    slabs

(* One giant burst, a mid-size slab and a one-intention trickle. *)
let test_batched_handoff_sweep () =
  check_wire_sweep ~seed:99 ~domains:2 ~slabs:[ max_int; 17; 1 ]

let prop_wire_sweep =
  QCheck2.Test.make ~name:"pipe = seq over stream, slab and domains" ~count:20
    ~print:(fun (seed, slab, domains) ->
      Printf.sprintf "seed %d slab %d domains %d" seed slab domains)
    QCheck2.Gen.(
      triple (int_bound 100_000)
        (frequency [ (4, int_range 1 64); (1, return max_int) ])
        (int_range 1 2))
    (fun (seed, slab, domains) ->
      check_wire_sweep ~seed ~domains ~slabs:[ slab ];
      true)

(* A short hand-built wire stream at log positions 1, 2, 3, ...:
   intention [k] executes against the state [lag k] entries back in the
   generator's history (0 = the newest recorded).  When [lie k] holds,
   its header names snapshot [never_recorded] instead, a position the
   log never reaches, and the generator leaves it out. *)
let never_recorded = 1_000_000

let chain_stream ?(lie = fun _ -> false) ~config ~txns ~lag () =
  let genesis = Helpers.genesis genesis_n in
  let gen = Pipeline.create ~config ~genesis () in
  let history = ref [ (-1, genesis) ] in
  let wires = ref [] in
  for k = 0 to txns - 1 do
    let snapshot_pos, snapshot = List.nth !history (lag k) in
    let e =
      Executor.begin_txn
        ~snapshot_pos:(if lie k then never_recorded else snapshot_pos)
        ~snapshot ~server:0 ~txn_seq:k ~isolation:I.Serializable ()
    in
    ignore (Executor.read e (k * 7 mod genesis_n));
    Executor.write e (k * 13 mod genesis_n) (Printf.sprintf "c%d" k);
    let src =
      match Executor.finish e with
      | Some d -> Codec.encode d
      | None -> assert false
    in
    let pos = k + 1 in
    wires := (pos, src) :: !wires;
    if not (lie k) then begin
      ignore (Pipeline.submit gen (Pipeline.decode gen ~pos src));
      let _, lpos, tree = Pipeline.lcs gen in
      history := (lpos, tree) :: !history
    end
  done;
  Pipeline.shutdown gen;
  (genesis, List.rev !wires)

(* A worker decode that fails is redone on the driver, which raises the
   worker's [Corrupt].  The corrupt member sits in the middle of a
   [pipe:2] batch and names the state recorded before the batch, so its
   decode is dealt to a worker at once; every other member of that batch
   names its predecessor, so the ones before it decode one by one as
   final meld records their predecessors and the ones after it can
   never decode.  The error and the deserialize counters at the raise
   must equal [seq]'s: every earlier intention parsed and counted, the
   corrupt one not. *)
let test_worker_decode_failure_redo () =
  let config = Pipeline.with_premeld in
  let prefix = 20 and batch = 21 in
  let bad = prefix + (batch / 2) in
  let genesis, wires =
    chain_stream ~config ~txns:(prefix + batch)
      ~lag:(fun k -> if k = bad then bad - prefix else 0)
      ()
  in
  let wires =
    List.mapi
      (fun k (pos, src) ->
        if k = bad then (pos, String.sub src 0 (String.length src - 1))
        else (pos, src))
      wires
  in
  let first = List.filteri (fun k _ -> k < prefix) wires in
  let second = List.filteri (fun k _ -> k >= prefix) wires in
  let run runtime =
    let p = Pipeline.create ~config ~runtime ~genesis () in
    ignore (Pipeline.submit_wire_batch p first);
    let _, lpos, _ = Pipeline.lcs p in
    check "corrupt member decodable at batch start" true
      (Codec.peek_snapshot (snd (List.nth wires bad)) <= lpos);
    let msg =
      match Pipeline.submit_wire_batch p second with
      | exception Codec.Corrupt m -> m
      | _ -> Alcotest.fail "truncated intention accepted"
    in
    let c = Pipeline.counters p in
    let off = Pipeline.offload p in
    Pipeline.shutdown p;
    ( msg,
      c.Counters.deserialize.Counters.intentions,
      c.Counters.deserialize.Counters.nodes_visited,
      Hyder_util.Stats.Summary.count c.Counters.intention_bytes,
      off )
  in
  let smsg, sn, snodes, sbytes, _ = run Runtime.sequential in
  check_int "seq: every earlier intention counted" bad sn;
  let pmsg, pn, pnodes, pbytes, off = run (Runtime.pipelined ~domains:2) in
  Alcotest.(check string) "same Corrupt message" smsg pmsg;
  check_int "same deserialize intentions" sn pn;
  check_int "same deserialize nodes" snodes pnodes;
  check_int "same intention_bytes count" sbytes pbytes;
  match off with
  | None -> Alcotest.fail "pipelined run reported no offload stats"
  | Some o ->
      check_int "every decode up to the corrupt one accounted" (bad + 1)
        (o.Pipeline.ds_offloaded + o.Pipeline.ds_inline)

(* A stream naming a snapshot the log never records fails with one
   [Failure] text on both backends: the sequential check, and the
   pipelined stall that runs the blocked decode through it. *)
let test_invalid_stream_same_error () =
  let expect_same ~name ~config ~runtimes (genesis, wires) =
    let run runtime =
      let p = Pipeline.create ~config ~runtime ~genesis () in
      let r =
        match Pipeline.submit_wire_batch p wires with
        | exception Failure m -> m
        | _ -> Alcotest.failf "%s: invalid stream accepted" name
      in
      Pipeline.shutdown p;
      r
    in
    let want = run Runtime.sequential in
    check (name ^ ": names the stream invalid") true
      (String.starts_with ~prefix:"Pipeline.submit_wire_batch: intention at"
         want);
    List.iter
      (fun runtime ->
        Alcotest.(check string)
          (Printf.sprintf "%s: %s = seq" name (Runtime.to_string runtime))
          want (run runtime))
      runtimes
  in
  let config = Pipeline.with_both in
  expect_same ~name:"stall" ~config
    ~runtimes:[ Runtime.pipelined ~domains:2 ]
    (chain_stream ~config ~txns:25 ~lie:(fun k -> k = 12) ~lag:(fun _ -> 0) ());
  (* group_size beyond threads * distance + 1 would hold back a member's
     designated premeld input until its own group completes: both
     backends refuse it at [create] and at [restore] *)
  let config =
    {
      Pipeline.premeld = Some { Premeld.threads = 1; distance = 1 };
      group_size = 3;
    }
  in
  let genesis = Helpers.genesis 8 in
  let ckpt =
    let src =
      Pipeline.create
        ~config:{ config with Pipeline.group_size = 2 }
        ~genesis ()
    in
    match Pipeline.checkpoint src with
    | Some c -> c
    | None -> Alcotest.fail "fresh pipeline has no checkpoint"
  in
  let rejected name f =
    match f () with
    | exception Invalid_argument m ->
        check (name ^ ": names the group size") true
          (String.ends_with ~suffix:"exceeds threads * distance + 1 = 2" m)
    | p ->
        Pipeline.shutdown p;
        Alcotest.failf "%s accepted group_size 3 at t=1 d=1" name
  in
  List.iter
    (fun runtime ->
      let rt = Runtime.to_string runtime in
      rejected (rt ^ " create") (fun () ->
          Pipeline.create ~config ~runtime ~genesis ());
      rejected (rt ^ " restore") (fun () ->
          Pipeline.restore ~config ~runtime ckpt))
    [ Runtime.sequential; Runtime.pipelined ~domains:2 ]

(* A chained stream, every intention naming its predecessor's state, is
   the worst case for snapshot lag: no decode can start before final
   meld records the state just before it.  Replayed in one batch, it
   must still equal [seq], and every decode the driver runs must be a
   steal — none waits inline for its snapshot state. *)
let test_chained_stream () =
  List.iter
    (fun (name, config) ->
      let genesis, wires =
        chain_stream ~config ~txns:60 ~lag:(fun _ -> 0) ()
      in
      let sd, sfinal, scounts, _, sdigest =
        replay_wire ~config ~runtime:Runtime.sequential ~slab:max_int genesis
          wires
      in
      let d, final, counts, off, digest =
        replay_wire ~config
          ~runtime:(Runtime.pipelined ~domains:2)
          ~slab:max_int genesis wires
      in
      compare_to_baseline ~name ~bd:sd ~bfinal:sfinal ~bcounts:scounts
        (d, final, counts);
      Alcotest.(check string) (name ^ ": counters identical") sdigest digest;
      match off with
      | None -> Alcotest.fail (name ^ ": no offload stats")
      | Some o ->
          check_int (name ^ ": every decode accounted") (List.length wires)
            (o.Pipeline.ds_offloaded + o.Pipeline.ds_inline);
          check_int (name ^ ": driver decodes only what it steals")
            o.Pipeline.driver_steals o.Pipeline.ds_inline)
    [ ("chain plain", Pipeline.plain); ("chain both", Pipeline.with_both) ]

(* Shutdown joins the stage-pool workers, so a later batch must fail
   loudly instead of queueing jobs nobody will run and parking the
   driver forever. *)
let test_submit_after_shutdown_raises () =
  let config = Pipeline.with_both in
  let genesis, _, wires = make_stream ~config ~txns:20 ~seed:5 in
  let p =
    Pipeline.create ~config ~runtime:(Runtime.pipelined ~domains:2) ~genesis ()
  in
  let slice lo hi l = List.filteri (fun i _ -> lo <= i && i < hi) l in
  ignore (Pipeline.submit_wire_batch p (slice 0 2 wires));
  Pipeline.shutdown p;
  Pipeline.shutdown p (* idempotent *);
  let expect name f =
    match f () with
    | exception Invalid_argument m ->
        Alcotest.(check string) name "Runtime.Stage_pool: used after shutdown" m
    | _ -> Alcotest.failf "%s: accepted after shutdown" name
  in
  expect "submit_wire_batch" (fun () ->
      Pipeline.submit_wire_batch p (slice 2 4 wires));
  let pool =
    Runtime.Stage_pool.create ~domains:1 ~dummy_job:0 ~dummy_result:0
      ~exec:(fun ~worker:_ j -> j)
      ()
  in
  Runtime.Stage_pool.shutdown pool;
  expect "Stage_pool.submit_batch" (fun () ->
      ignore (Runtime.Stage_pool.submit_batch pool ~worker:0 [| 1 |] ~len:1));
  expect "Stage_pool.result_batch" (fun () ->
      ignore (Runtime.Stage_pool.result_batch pool ~worker:0 [| 0 |] ~max:1));
  expect "Stage_pool.wait" (fun () ->
      Runtime.Stage_pool.wait pool ~seen:(Runtime.Stage_pool.events pool))

(* Satellite of the batched-handoff work: one steady-state round of the
   stage-pool fabric — batched submit, worker exec, batched drain — must
   allocate nothing on the driver domain.  Jobs and results are
   immediates here, so every word the bracket sees would come from the
   handoff machinery itself (ring slots are preallocated, publications
   are index stores, the doorbell is an atomic bump).  Gc.minor_words
   is per-domain in OCaml 5: worker-side allocation cannot leak into
   the bracket. *)
let test_stage_pool_handoff_allocates_nothing () =
  let domains = 2 in
  let pool =
    Runtime.Stage_pool.create ~queue:8 ~domains ~dummy_job:(-1)
      ~dummy_result:(-1)
      ~exec:(fun ~worker:_ j -> j + 1)
      ()
  in
  Fun.protect ~finally:(fun () -> Runtime.Stage_pool.shutdown pool)
  @@ fun () ->
  let cap = Runtime.Stage_pool.queue_capacity pool in
  let buf = Array.init cap (fun i -> i) in
  let out = Array.make cap (-1) in
  let total = domains * cap in
  let got = ref 0 in
  let short = ref false in
  (* One round: fill every worker's (empty) job ring in a single batched
     publication each, then spin-drain every result.  All buffers and
     refs are preallocated — the loop body itself must not cons. *)
  let round () =
    for w = 0 to domains - 1 do
      if
        Runtime.Stage_pool.submit_batch pool ~worker:w buf ~len:cap <> cap
      then short := true
    done;
    got := 0;
    while !got < total do
      for w = 0 to domains - 1 do
        got := !got + Runtime.Stage_pool.result_batch pool ~worker:w out ~max:cap
      done;
      if !got < total then Domain.cpu_relax ()
    done
  in
  (* Warm the rings, the workers and the condvar paths out of the
     measurement. *)
  for _ = 1 to 50 do
    round ()
  done;
  let rounds = 200 in
  let mw0 = Gc.minor_words () in
  for _ = 1 to rounds do
    round ()
  done;
  let delta = Gc.minor_words () -. mw0 in
  check "rings never refused a full-capacity batch" false !short;
  check "last round drained" true (!got = total);
  (* Budget covers only the Gc.minor_words probe's own float boxing; a
     single word allocated per handoff round would cost 200+. *)
  check
    (Printf.sprintf
       "steady-state handoff allocated ~nothing on the driver (%.0f words \
        over %d rounds)"
       delta rounds)
    true
    (delta < 64.0)

(* Premeld, group meld and final meld run on the driver under every
   backend, through the same code, so the minor words each allocates —
   and what meld materializes on their behalf — are the same under
   [seq] and [pipe:2]; only the ds column differs, because worker
   decodes are not sampled. *)
let test_stage_gc_backend_invariant () =
  let module Metrics = Hyder_obs.Metrics in
  let config = Pipeline.with_both in
  let genesis, _, wires = make_stream ~config ~txns:300 ~seed:61 in
  let run runtime =
    let metrics = Metrics.create () in
    let p = Pipeline.create ~config ~runtime ~metrics ~genesis () in
    ignore (Pipeline.submit_wire_batch p wires @ Pipeline.flush p);
    Pipeline.shutdown p;
    let snap = Metrics.snapshot metrics in
    List.map
      (fun stage ->
        let name = Printf.sprintf "pipeline_%s_gc_minor_words" stage in
        match List.assoc_opt name snap with
        | Some (Metrics.Fcounter_v x) -> (name, x)
        | _ -> Alcotest.failf "%s not registered" name)
      [ "pm"; "gm"; "fm"; "mz" ]
  in
  let seq = run Runtime.sequential in
  let pipe = run (Runtime.pipelined ~domains:2) in
  List.iter2
    (fun (name, s) (_, p) ->
      check (name ^ " sampled") true (s > 0.0);
      check (Printf.sprintf "%s: pipe:2 %.0f = seq %.0f" name p s) true (p = s))
    seq pipe

(* The flight recorder must stay observational under the pipelined
   backend too: decisions, trees and counters bit-identical with the
   recorder on or off while decodes run on workers, and every decision
   closes exactly one record stamped from the worker-side brackets. *)
let test_pipelined_flight_inert () =
  let module Flight = Hyder_obs.Flight in
  let config =
    {
      Pipeline.premeld = Some { Premeld.threads = 3; distance = 4 };
      group_size = 2;
    }
  in
  let genesis, intentions, wires = make_stream ~config ~txns:200 ~seed:43 in
  let bd, _, _ = replay_submit ~config genesis intentions in
  let wd, bfinal, bcounts, _, _ =
    replay_wire ~config ~runtime:Runtime.sequential ~slab:max_int genesis wires
  in
  check "wire baseline: decisions identical to in-memory" true
    (List.length wd = List.length bd && List.for_all2 same_decision wd bd);
  let flight = Flight.create ~label:"pipe:2" () in
  let p =
    Pipeline.create ~config ~runtime:(Runtime.pipelined ~domains:2) ~flight
      ~genesis ()
  in
  let d = Pipeline.submit_wire_batch p wires @ Pipeline.flush p in
  let _, _, final = Pipeline.lcs p in
  let counts = pm_counts p in
  let off = Pipeline.offload p in
  Pipeline.shutdown p;
  compare_to_baseline ~name:"flight pipe:2" ~bd:wd ~bfinal ~bcounts
    (d, final, counts);
  (match off with
  | Some o -> check "some decodes offloaded" true (o.Pipeline.ds_offloaded > 0)
  | None -> Alcotest.fail "pipelined run reported no offload stats");
  check_int "every decision closed one record" (List.length d)
    (Flight.completed flight);
  check_int "no records leak" 0 (Flight.in_flight flight)

(* ------------------------------------------------------------------ *)
(* Clock and Runtime descriptors                                        *)
(* ------------------------------------------------------------------ *)

let test_clock_monotonic () =
  let prev = ref (Clock.now ()) in
  for _ = 1 to 1000 do
    let t = Clock.now () in
    check "never goes backwards" true (t >= !prev);
    prev := t
  done;
  check "elapsed is non-negative" true (Clock.elapsed (Clock.now ()) >= 0.0)

let test_runtime_parse () =
  check "seq" true (Runtime.parse "seq" = Ok Runtime.sequential);
  check "sequential" true
    (Runtime.parse "sequential" = Ok Runtime.sequential);
  check "pipe:4" true
    (Runtime.parse "pipe:4" = Ok (Runtime.pipelined ~domains:4));
  check "bare pipe" true
    (Runtime.parse "pipe" = Ok (Runtime.pipelined ~domains:2));
  check "pipelined:3" true
    (Runtime.parse "pipelined:3" = Ok (Runtime.pipelined ~domains:3));
  (match Runtime.parse "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse accepted garbage");
  (match Runtime.parse "pipe:0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse accepted pipe:0");
  (* A pipe spec takes nothing after the domain count, and the deleted
     par backend is no spec at all; the error names the grammar. *)
  List.iter
    (fun spec ->
      match Runtime.parse spec with
      | Ok _ -> Alcotest.failf "parse accepted %s" spec
      | Error e ->
          check (spec ^ ": error names the grammar") true
            (String.ends_with ~suffix:"(want seq | pipe:<n>)" e))
    [ "pipe:4:32"; "pipe:2:adaptive"; "pipe:3:a"; "par"; "par:2"; "parallel";
      "parallel:4" ];
  check "round-trip" true
    (Runtime.to_string (Runtime.pipelined ~domains:4) = "pipe:4"
    && Runtime.to_string Runtime.sequential = "seq");
  check "canonical strings re-parse to themselves" true
    (List.for_all
       (fun s ->
         match Runtime.parse s with
         | Ok b -> Runtime.to_string b = s
         | Error _ -> false)
       [ "seq"; "pipe:4" ]);
  (match Runtime.pipelined ~domains:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "pipelined ~domains:0 accepted");
  (* The leftover [Parallel] constructor is not a backend: the pipeline
     refuses it on both entries, and it has no spec to print. *)
  let par = Runtime.Parallel { domains = 2 } in
  let genesis = Helpers.genesis 8 in
  let refused name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted Runtime.Parallel" name
  in
  refused "Pipeline.create" (fun () ->
      ignore (Pipeline.create ~runtime:par ~genesis ()));
  let ckpt =
    match Pipeline.checkpoint (Pipeline.create ~genesis ()) with
    | Some c -> c
    | None -> Alcotest.fail "fresh pipeline has no checkpoint"
  in
  refused "Pipeline.restore" (fun () ->
      ignore (Pipeline.restore ~runtime:par ckpt));
  refused "Runtime.to_string" (fun () -> ignore (Runtime.to_string par))

let () =
  Alcotest.run "runtime"
    [
      ( "cross-backend determinism",
        [
          Alcotest.test_case "paper config (t=5 d=10 g=2)" `Quick
            test_paper_config;
          Alcotest.test_case "small distance" `Quick test_small_distance;
          Alcotest.test_case "big groups" `Quick test_big_groups;
          Alcotest.test_case "group at the window bound" `Quick
            test_group_at_window_bound;
          Alcotest.test_case "premeld off" `Quick test_premeld_off;
        ] );
      ( "pipelined backend",
        [
          Alcotest.test_case "bursty wire batch, bounded queues" `Quick
            test_pipelined_burst;
          Alcotest.test_case "slab {max_int,17,1} sweep" `Quick
            test_batched_handoff_sweep;
          QCheck_alcotest.to_alcotest prop_wire_sweep;
          Alcotest.test_case "worker decode failure redone on the driver"
            `Quick test_worker_decode_failure_redo;
          Alcotest.test_case "invalid stream: one error on every backend"
            `Quick test_invalid_stream_same_error;
          Alcotest.test_case "chained stream: no decode waits inline" `Quick
            test_chained_stream;
          Alcotest.test_case "submit after shutdown raises" `Quick
            test_submit_after_shutdown_raises;
          Alcotest.test_case "stage-pool handoff round allocates nothing"
            `Quick test_stage_pool_handoff_allocates_nothing;
          Alcotest.test_case "flight stays inert" `Quick
            test_pipelined_flight_inert;
          Alcotest.test_case "pm/gm/fm/mz GC words = seq" `Quick
            test_stage_gc_backend_invariant;
        ] );
      ( "clock and descriptors",
        [
          Alcotest.test_case "monotonic clock" `Quick test_clock_monotonic;
          Alcotest.test_case "runtime parse/print" `Quick test_runtime_parse;
        ] );
    ]
