module Engine = Hyder_sim.Engine
module Resource = Hyder_sim.Resource
module Corfu = Hyder_log.Corfu
module Broadcast = Hyder_log.Broadcast
module Pipeline = Hyder_core.Pipeline
module Premeld = Hyder_core.Premeld
module Executor = Hyder_core.Executor
module State_store = Hyder_core.State_store
module Counters = Hyder_core.Counters
module I = Hyder_codec.Intention
module Codec = Hyder_codec.Codec
module Ycsb = Hyder_workload.Ycsb
module Summary = Hyder_util.Stats.Summary
module Flight = Hyder_obs.Flight
module Json = Hyder_obs.Json

type config = {
  servers : int;
  write_threads : int;
  read_threads : int;
  inflight_per_thread : int;
  adaptive_admission : Admission.config option;
      (** [Some _] replaces the fixed window with the AIMD controller *)
  cores_per_server : int;
  pipeline : Pipeline.config;
  corfu : Corfu.config;
  broadcast : Broadcast.config;
  workload : Ycsb.config;
  duration : float;
  warmup : float;
  seed : int64;
  flight : Flight.t;
      (** per-transaction flight recorder threaded into the real
          pipeline; {!Flight.disabled} (the default) costs one branch
          per lifecycle edge *)
}

let default_config =
  {
    servers = 6;
    write_threads = 20;
    read_threads = 0;
    inflight_per_thread = 80;
    adaptive_admission = None;
    (* The paper's servers have 16 physical cores / 32 logical processors
       (Section 6.1); stage threads pin to their own hardware threads and
       the general pool gets the rest. *)
    cores_per_server = 32;
    pipeline = Pipeline.plain;
    corfu = Corfu.default_config;
    broadcast = Broadcast.default_config;
    workload = Ycsb.default;
    duration = 1.0;
    warmup = 0.3;
    seed = 0x5EEDL;
    flight = Flight.disabled;
  }

type result = {
  write_tps : float;
  read_tps : float;
  total_tps : float;
  commit_count : int;
  abort_count : int;
  abort_rate : float;
  fm_nodes_per_txn : float;
  pm_nodes_per_txn : float;
  gm_nodes_per_txn : float;
  conflict_zone_intentions : float;
  conflict_zone_blocks : float;
  ephemerals_per_txn : float;
  intention_bytes : float;
  blocks_per_intention : float;
  appends_per_sec : float;
  stage_us : float * float * float * float;
  gc_minor_words_per_txn : float;
  gc_promoted_words_per_txn : float;
  gc_major_words_per_txn : float;
  abort_reasons : (string * int) list;
}

(* Per-intention bookkeeping shared between the real pipeline and the
   per-server stage models. *)
type info = {
  origin : int;
  thread : int;
  snap_seq : int;  (** tracked so the snapshot state survives until decode *)
  mutable bytes : string;  (** encoded intention; dropped after decode *)
  byte_size : int;
  blocks : int;
  mutable seq : int;  (** -1 until the real pipeline accepted it *)
  mutable pos : int;  (** log position, set with [seq] *)
  mutable t_ds : float;
  mutable t_pm : float;
  mutable t_gm : float;
  mutable t_fm : float;  (** whole group's final meld, on the last member *)
  mutable premelded : bool;
  mutable decisions : Pipeline.decision list;  (** on the last member *)
  mutable pending_arrivals : int list;  (** servers whose ds awaits submit *)
}

type thread_state = { mutable inflight : int; mutable blocked : bool }

type group_progress = {
  mutable done_members : int;
  mutable members : info list;  (** in seq order, reversed *)
}

type server = {
  general : Resource.t;
  pm_res : Resource.t array;
  gm_res : Resource.t;
  fm_res : Resource.t;
  mutable fm_done_seq : int;
  mutable fm_done_pos : int;  (** log position of [fm_done_seq] *)
  mutable next_fm_group : int;  (** first seq of the next group to meld *)
  admission : Admission.t option;
  fm_stash : (int, float * info list) Hashtbl.t;
  groups : (int, group_progress) Hashtbl.t;
  pm_blocked : (int, (unit -> unit) list) Hashtbl.t;
      (** premeld starts waiting for fm progress, bucketed by the state seq
          they need (Algorithm 1's wait) *)
  threads : thread_state array;
}

let work ~(before : Counters.t) (after : Counters.t) ~bytes =
  let d (s0 : Counters.stage) (s1 : Counters.stage) =
    ( s1.intentions - s0.intentions,
      s1.nodes_visited - s0.nodes_visited,
      s1.ephemerals - s0.ephemerals )
  in
  let ds_runs, ds_nodes, _ = d before.deserialize after.deserialize in
  [|
    (ds_runs, ds_nodes, bytes);
    d before.premeld after.premeld;
    d before.group_meld after.group_meld;
    d before.final_meld after.final_meld;
  |]

let run cfg =
  if cfg.servers <= 0 || cfg.write_threads < 0 || cfg.read_threads < 0 then
    invalid_arg "Cluster.run: bad config";
  let eng = Engine.create () in
  let corfu = Corfu.create ~config:cfg.corfu eng in
  let bcast =
    Broadcast.create ~config:cfg.broadcast eng ~senders:cfg.servers
      ~receivers:cfg.servers
  in
  let workload = Ycsb.create ~seed:cfg.seed cfg.workload in
  let genesis = Ycsb.genesis workload in
  let pipeline =
    Pipeline.create ~config:cfg.pipeline ~flight:cfg.flight ~genesis ()
  in
  (* All executor encodes run on the simulator's single driver thread, so
     one encoder serves every server: each encode reuses its backing
     buffer instead of growing a fresh one. *)
  let encoder = Codec.Encoder.create () in
  let states = Pipeline.states pipeline in
  let counters = Pipeline.counters pipeline in
  let pm_threads, pm_distance =
    match cfg.pipeline.Pipeline.premeld with
    | Some { Premeld.threads; distance } -> (threads, distance)
    | None -> (0, 0)
  in
  let group_size = cfg.pipeline.Pipeline.group_size in
  let rng = Hyder_util.Rng.create (Int64.lognot cfg.seed) in
  let stop_time = cfg.warmup +. cfg.duration in

  (* Per-server resources.  Premeld, group meld and final meld threads are
     core-pinned (Section 5.2); everything else shares the remaining
     cores. *)
  let dedicated = pm_threads + (if group_size > 1 then 1 else 0) + 1 in
  let general_cores = max 1 (cfg.cores_per_server - dedicated) in
  let servers =
    Array.init cfg.servers (fun _ ->
        {
          general = Resource.create eng ~servers:general_cores;
          pm_res =
            Array.init (max 1 pm_threads) (fun _ ->
                Resource.create eng ~servers:1);
          gm_res = Resource.create eng ~servers:1;
          fm_res = Resource.create eng ~servers:1;
          fm_done_seq = -1;
          fm_done_pos = -1;
          next_fm_group = 0;
          admission =
            Option.map (fun c -> Admission.create ~config:c ())
              cfg.adaptive_admission;
          fm_stash = Hashtbl.create 64;
          groups = Hashtbl.create 64;
          pm_blocked = Hashtbl.create 256;
          threads =
            Array.init cfg.write_threads (fun _ ->
                { inflight = 0; blocked = false });
        })
  in

  (* Outstanding snapshot seqs (for pruning retained states). *)
  let outstanding : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let track_snapshot seq =
    Hashtbl.replace outstanding seq
      (1 + Option.value ~default:0 (Hashtbl.find_opt outstanding seq))
  in
  let untrack_snapshot seq =
    match Hashtbl.find_opt outstanding seq with
    | Some 1 -> Hashtbl.remove outstanding seq
    | Some n -> Hashtbl.replace outstanding seq (n - 1)
    | None -> ()
  in
  let submit_count = ref 0 in
  let maybe_prune () =
    if !submit_count land 1023 = 0 then begin
      let lcs_seq, _, _ = Pipeline.lcs pipeline in
      let min_out =
        Hashtbl.fold (fun s _ acc -> min s acc) outstanding lcs_seq
      in
      let min_out = Array.fold_left (fun acc s -> min acc s.fm_done_seq) min_out servers in
      Pipeline.prune pipeline ~keep:(lcs_seq - min_out + 8)
    end
  in

  (* Measurement window counters. *)
  let in_window () =
    let t = Engine.now eng in
    t >= cfg.warmup && t < stop_time
  in
  let commits = ref 0 and aborts = ref 0 and reads_done = ref 0 in
  (* Abort-reason breakdown, keyed by {!Pipeline.reason_slug}. *)
  let abort_reasons_tbl : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let note_abort reason =
    let k = Option.fold ~none:"unknown" ~some:Pipeline.reason_slug reason in
    Hashtbl.replace abort_reasons_tbl k
      (1 + Option.value ~default:0 (Hashtbl.find_opt abort_reasons_tbl k))
  in
  let appends_in_window = ref 0 in
  let counters_at_window_start = ref None in
  let gc_at_window_start = ref None in
  let stage_sums = Array.make 4 0.0 in
  let stage_counts = Array.make 4 0 in
  let blocks_sum = ref 0 and blocks_count = ref 0 and bytes_sum = ref 0 in

  (* ---------------- real pipeline feeding (log order) ---------------- *)
  let next_feed_pos = ref 0 in
  let feed_buffer : (int, info option) Hashtbl.t = Hashtbl.create 256 in
  (* forward declaration for the per-server stage model *)
  let start_ds_ref = ref (fun _ _ -> ()) in

  let real_submit (info : info) pos =
    let before = Counters.copy counters in
    info.seq <- !submit_count;
    info.pos <- pos;
    incr submit_count;
    (* Each stage's service time is the calibrated cost of the work this
       submit booked into the counters, so the schedule depends on the
       log alone. *)
    info.decisions <- Pipeline.submit_wire_batch pipeline [ (pos, info.bytes) ];
    untrack_snapshot info.snap_seq;
    info.bytes <- "";
    let w = work ~before counters ~bytes:info.byte_size in
    info.t_ds <- Calibration.time Calibration.ds w.(0);
    info.t_pm <- Calibration.time Calibration.pm w.(1);
    info.premelded <- (let runs, _, _ = w.(1) in runs > 0);
    info.t_gm <- Calibration.time Calibration.gm w.(2);
    info.t_fm <- Calibration.time Calibration.fm w.(3);
    if in_window () then begin
      stage_sums.(0) <- stage_sums.(0) +. info.t_ds;
      stage_sums.(1) <- stage_sums.(1) +. info.t_pm;
      stage_sums.(2) <- stage_sums.(2) +. info.t_gm;
      stage_sums.(3) <- stage_sums.(3) +. info.t_fm;
      for i = 0 to 3 do
        stage_counts.(i) <- stage_counts.(i) + 1
      done;
      blocks_sum := !blocks_sum + info.blocks;
      bytes_sum := !bytes_sum + info.byte_size;
      incr blocks_count
    end;
    maybe_prune ();
    (* Deserialization can now be modeled at every server whose broadcast
       copy arrived before the log order caught up. *)
    let waiters = info.pending_arrivals in
    info.pending_arrivals <- [];
    List.iter (fun s -> !start_ds_ref s info) waiters
  in
  let feed_block ~pos ~(last : info option) =
    Hashtbl.replace feed_buffer pos last;
    let continue = ref true in
    while !continue do
      match Hashtbl.find_opt feed_buffer !next_feed_pos with
      | None -> continue := false
      | Some entry ->
          Hashtbl.remove feed_buffer !next_feed_pos;
          (match entry with
          | Some info -> real_submit info !next_feed_pos
          | None -> ());
          incr next_feed_pos
    done
  in

  (* ---------------- per-server stage model ---------------- *)
  let thread_loop_ref = ref (fun _ _ -> ()) in
  let deliver_decisions s_idx (members : info list) =
    List.iter
      (fun (last : info) ->
        List.iter
          (fun (d : Pipeline.decision) ->
            (* Decisions live on the group's last member; route each to its
               origin thread when that origin's own fm reaches it. *)
            let member =
              List.find_opt (fun (m : info) -> m.seq = d.Pipeline.seq) members
            in
            match member with
            | Some m when m.origin = s_idx ->
                if in_window () then
                  if d.Pipeline.committed then incr commits
                  else begin
                    incr aborts;
                    note_abort d.Pipeline.reason
                  end;
                (match servers.(s_idx).admission with
                | Some a -> Admission.observe a ~committed:d.Pipeline.committed
                | None -> ());
                let th = servers.(s_idx).threads.(m.thread) in
                th.inflight <- th.inflight - 1;
                if th.blocked then begin
                  th.blocked <- false;
                  Engine.schedule eng ~delay:0.0 (fun () ->
                      !thread_loop_ref s_idx m.thread)
                end
            | _ -> ())
          last.decisions)
      members
  in

  let rec fm_try_start s_idx =
    let s = servers.(s_idx) in
    match Hashtbl.find_opt s.fm_stash s.next_fm_group with
    | None -> ()
    | Some (t_fm, members) ->
        Hashtbl.remove s.fm_stash s.next_fm_group;
        Resource.request s.fm_res ~service_time:t_fm (fun () ->
            (* [members] is in seq order *)
            let last = List.nth members (List.length members - 1) in
            let prev_done = s.fm_done_seq in
            s.fm_done_seq <- last.seq;
            s.fm_done_pos <- last.pos;
            s.next_fm_group <- last.seq + 1;
            deliver_decisions s_idx members;
            (* wake premelds waiting on state availability *)
            for m = prev_done + 1 to last.seq do
              match Hashtbl.find_opt s.pm_blocked m with
              | Some ks ->
                  Hashtbl.remove s.pm_blocked m;
                  List.iter (fun k -> k ()) ks
              | None -> ()
            done;
            fm_try_start s_idx)
  in
  let group_member_done s_idx (info : info) =
    let s = servers.(s_idx) in
    let first = info.seq / group_size * group_size in
    let g =
      match Hashtbl.find_opt s.groups first with
      | Some g -> g
      | None ->
          let g = { done_members = 0; members = [] } in
          Hashtbl.add s.groups first g;
          g
    in
    g.done_members <- g.done_members + 1;
    g.members <- info :: g.members;
    if g.done_members = group_size then begin
      Hashtbl.remove s.groups first;
      let members =
        List.sort (fun (a : info) b -> Int.compare a.seq b.seq) g.members
      in
      let t_fm =
        List.fold_left (fun acc (m : info) -> acc +. m.t_fm) 0.0 members
      in
      Hashtbl.replace s.fm_stash first (t_fm, members);
      fm_try_start s_idx
    end
  in
  let after_pm s_idx (info : info) =
    let s = servers.(s_idx) in
    if group_size <= 1 then begin
      Hashtbl.replace s.fm_stash info.seq (info.t_fm, [ info ]);
      fm_try_start s_idx
    end
    else
      Resource.request s.gm_res ~service_time:info.t_gm (fun () ->
          group_member_done s_idx info)
  in
  let pm_stage s_idx (info : info) =
    let s = servers.(s_idx) in
    if pm_threads = 0 || not info.premelded then after_pm s_idx info
    else begin
      let m = info.seq - (pm_threads * pm_distance) - 1 in
      let start () =
        let res = s.pm_res.(info.seq mod pm_threads) in
        Resource.request res ~service_time:info.t_pm (fun () ->
            after_pm s_idx info)
      in
      if m <= s.fm_done_seq then start ()
      else
        Hashtbl.replace s.pm_blocked m
          (start
          :: Option.value ~default:[] (Hashtbl.find_opt s.pm_blocked m))
    end
  in
  let start_ds s_idx (info : info) =
    let s = servers.(s_idx) in
    Resource.request s.general ~service_time:info.t_ds (fun () ->
        pm_stage s_idx info)
  in
  start_ds_ref := start_ds;

  let on_arrival s_idx (info : info) =
    if info.seq >= 0 then start_ds s_idx info
    else info.pending_arrivals <- s_idx :: info.pending_arrivals
  in

  (* ---------------- executors ---------------- *)
  (* A read-only transaction touches the snapshot and ships nothing, so
     its cost is its op count alone. *)
  let read_service =
    Calibration.time Calibration.read (1, cfg.workload.Ycsb.ops_per_txn, 0)
  in
  let rec read_thread_loop s_idx () =
    if Engine.now eng < stop_time then begin
      Resource.request servers.(s_idx).general ~service_time:read_service (fun () ->
          if in_window () then incr reads_done;
          read_thread_loop s_idx ())
    end
  in

  let txn_counter = ref 0 in
  let rec append_blocks info remaining k =
    if remaining = 0 then k ()
    else
      Corfu.append corfu "" (fun pos ->
          if in_window () then incr appends_in_window;
          if remaining = 1 then begin
            (* Last block: its position names the intention. *)
            feed_block ~pos ~last:(Some info);
            k ();
            Broadcast.send bcast ~from:info.origin ~size:info.byte_size
              (fun ~receiver -> on_arrival receiver info)
          end
          else begin
            feed_block ~pos ~last:None;
            append_blocks info (remaining - 1) k
          end)
  in

  let rec write_thread_loop s_idx th_idx =
    if Engine.now eng < stop_time then begin
      let s = servers.(s_idx) in
      let th = s.threads.(th_idx) in
      let limit =
        match s.admission with
        | Some a -> Admission.window a
        | None -> cfg.inflight_per_thread
      in
      if th.inflight >= limit then th.blocked <- true
      else begin
        (* Execute the transaction for real against this server's current
           last-committed state. *)
        let snap_seq = s.fm_done_seq in
        let snapshot =
          match State_store.by_seq states snap_seq with
          | Some t -> t
          | None -> failwith "Cluster: snapshot state pruned too early"
        in
        incr txn_counter;
        let e =
          Executor.begin_txn ~snapshot_pos:s.fm_done_pos ~snapshot ~server:s_idx
            ~txn_seq:!txn_counter ~isolation:cfg.workload.Ycsb.isolation ()
        in
        let ops = Ycsb.next_write_txn workload in
        Ycsb.apply ops e;
        let exec_time bytes =
          Calibration.time Calibration.exec (1, List.length ops, bytes)
        in
        match Executor.finish e with
        | None ->
            (* degenerate all-read spec: treat as a read txn *)
            Resource.request s.general ~service_time:(exec_time 0) (fun () ->
                write_thread_loop s_idx th_idx)
        | Some draft ->
            let bytes = Codec.Encoder.encode encoder draft in
            let byte_size = String.length bytes in
            let t_exec = exec_time byte_size in
            let blocks =
              Codec.Blocks.blocks_needed
                ~block_size:cfg.corfu.Corfu.block_size byte_size
            in
            let info =
              {
                origin = s_idx;
                thread = th_idx;
                snap_seq;
                bytes;
                byte_size;
                blocks;
                seq = -1;
                pos = -1;
                t_ds = 0.0;
                t_pm = 0.0;
                t_gm = 0.0;
                t_fm = 0.0;
                premelded = false;
                decisions = [];
                pending_arrivals = [];
              }
            in
            th.inflight <- th.inflight + 1;
            track_snapshot snap_seq;
            Resource.request s.general ~service_time:t_exec (fun () ->
                append_blocks info info.blocks (fun () -> ());
                (* The executor moves on without waiting for the append or
                   the commit decision (Section 5.2). *)
                write_thread_loop s_idx th_idx)
      end
    end
  in
  thread_loop_ref := (fun s th -> write_thread_loop s th);

  (* Stagger thread start times slightly so the log order is not trivially
     round-robin. *)
  Array.iteri
    (fun s_idx s ->
      Array.iteri
        (fun th_idx _ ->
          Engine.schedule eng
            ~delay:(Hyder_util.Rng.float rng 0.0002)
            (fun () -> write_thread_loop s_idx th_idx))
        s.threads;
      for _ = 1 to cfg.read_threads do
        Engine.schedule eng
          ~delay:(Hyder_util.Rng.float rng 0.0002)
          (fun () -> read_thread_loop s_idx ())
      done)
    servers;

  (* Snapshot the work counters at the start of the measurement window so
     per-transaction statistics exclude warmup. *)
  Engine.schedule eng ~delay:cfg.warmup (fun () ->
      counters_at_window_start := Some (Counters.copy counters);
      (* [Gc.minor_words] is exact to the word (it adds the allocations
         made since the last minor collection); [quick_stat]'s promoted
         and major words advance only at collections, a quantization
         that is negligible over a whole measurement window. *)
      let st = Gc.quick_stat () in
      gc_at_window_start :=
        Some (Gc.minor_words (), st.Gc.promoted_words, st.Gc.major_words));

  Engine.run ~until:stop_time eng;

  (* ---------------- results ---------------- *)
  let base =
    match !counters_at_window_start with
    | Some c -> c
    | None -> Counters.create ()
  in
  let melded =
    counters.Counters.final_meld.Counters.intentions
    - base.Counters.final_meld.Counters.intentions
  in
  let melded_f = float_of_int (max 1 melded) in
  let per_txn stage base_stage =
    float_of_int (stage.Counters.nodes_visited - base_stage.Counters.nodes_visited)
    /. melded_f
  in
  let gc_minor_w, gc_promoted_w, gc_major_w =
    match !gc_at_window_start with
    | None -> (0.0, 0.0, 0.0)
    | Some (mw0, pw0, jw0) ->
        let st = Gc.quick_stat () in
        (Gc.minor_words () -. mw0, st.Gc.promoted_words -. pw0,
         st.Gc.major_words -. jw0)
  in
  let decided = !commits + !aborts in
  let write_tps = float_of_int !commits /. cfg.duration in
  let read_tps = float_of_int !reads_done /. cfg.duration in
  let avg_blocks =
    if !blocks_count = 0 then 0.0
    else float_of_int !blocks_sum /. float_of_int !blocks_count
  in
  let windowed_mean live base_summary =
    (* Counters.copy preserves the streaming summaries, so the window's
       own mean is the difference of the two accumulators. *)
    let n = Summary.count live - Summary.count base_summary in
    if n <= 0 then Summary.mean live
    else (Summary.total live -. Summary.total base_summary) /. float_of_int n
  in
  let cz =
    windowed_mean counters.Counters.conflict_zone base.Counters.conflict_zone
  in
  let stage_mean i =
    if stage_counts.(i) = 0 then 0.0
    else stage_sums.(i) /. float_of_int stage_counts.(i) *. 1e6
  in
  {
    write_tps;
    read_tps;
    total_tps = write_tps +. read_tps;
    commit_count = !commits;
    abort_count = !aborts;
    abort_rate =
      (if decided = 0 then 0.0
       else float_of_int !aborts /. float_of_int decided);
    fm_nodes_per_txn = per_txn counters.Counters.final_meld base.Counters.final_meld;
    pm_nodes_per_txn =
      per_txn counters.Counters.premeld base.Counters.premeld;
    gm_nodes_per_txn = per_txn counters.Counters.group_meld base.Counters.group_meld;
    conflict_zone_intentions = cz;
    conflict_zone_blocks = cz *. avg_blocks;
    ephemerals_per_txn =
      float_of_int
        (counters.Counters.final_meld.Counters.ephemerals
        + counters.Counters.premeld.Counters.ephemerals
        + counters.Counters.group_meld.Counters.ephemerals
        - base.Counters.final_meld.Counters.ephemerals
        - base.Counters.premeld.Counters.ephemerals
        - base.Counters.group_meld.Counters.ephemerals)
      /. melded_f;
    intention_bytes =
      (if !blocks_count = 0 then 0.0
       else float_of_int !bytes_sum /. float_of_int !blocks_count);
    blocks_per_intention = avg_blocks;
    appends_per_sec = float_of_int !appends_in_window /. cfg.duration;
    stage_us = (stage_mean 0, stage_mean 1, stage_mean 2, stage_mean 3);
    gc_minor_words_per_txn = gc_minor_w /. melded_f;
    gc_promoted_words_per_txn = gc_promoted_w /. melded_f;
    gc_major_words_per_txn = gc_major_w /. melded_f;
    abort_reasons =
      Hashtbl.fold (fun k n acc -> (k, n) :: acc) abort_reasons_tbl []
      |> List.sort (fun (ka, na) (kb, nb) ->
             match Int.compare nb na with
             | 0 -> String.compare ka kb
             | c -> c);
  }

let pp_result fmt r =
  let ds, pm, gm, fm = r.stage_us in
  Format.fprintf fmt
    "write %.0f tps, read %.0f tps, total %.0f tps; aborts %.2f%%; fm \
     %.1f nodes/txn; zone %.1f intentions (%.1f blocks); eph %.1f/txn; \
     intention %.0fB in %.1f blocks; %.0f appends/s; stages ds=%.1fus \
     pm=%.1fus gm=%.1fus fm=%.1fus; gc %.0f minor w/txn (%.0f promoted, \
     %.0f major)"
    r.write_tps r.read_tps r.total_tps
    (100.0 *. r.abort_rate)
    r.fm_nodes_per_txn r.conflict_zone_intentions r.conflict_zone_blocks
    r.ephemerals_per_txn r.intention_bytes r.blocks_per_intention
    r.appends_per_sec ds pm gm fm r.gc_minor_words_per_txn
    r.gc_promoted_words_per_txn r.gc_major_words_per_txn;
  (match r.abort_reasons with
  | [] -> ()
  | reasons ->
      Format.fprintf fmt "; abort reasons:";
      List.iter (fun (k, n) -> Format.fprintf fmt " %s=%d" k n) reasons)

let result_to_json r =
  let ds, pm, gm, fm = r.stage_us in
  Json.Obj
    [
      ("write_tps", Json.Float r.write_tps);
      ("read_tps", Json.Float r.read_tps);
      ("total_tps", Json.Float r.total_tps);
      ("commit_count", Json.Int r.commit_count);
      ("abort_count", Json.Int r.abort_count);
      ("abort_rate", Json.Float r.abort_rate);
      ( "abort_reasons",
        Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) r.abort_reasons) );
      ("fm_nodes_per_txn", Json.Float r.fm_nodes_per_txn);
      ("pm_nodes_per_txn", Json.Float r.pm_nodes_per_txn);
      ("gm_nodes_per_txn", Json.Float r.gm_nodes_per_txn);
      ("conflict_zone_intentions", Json.Float r.conflict_zone_intentions);
      ("conflict_zone_blocks", Json.Float r.conflict_zone_blocks);
      ("ephemerals_per_txn", Json.Float r.ephemerals_per_txn);
      ("intention_bytes", Json.Float r.intention_bytes);
      ("blocks_per_intention", Json.Float r.blocks_per_intention);
      ("appends_per_sec", Json.Float r.appends_per_sec);
      ( "stage_us",
        Json.Obj
          [
            ("ds", Json.Float ds);
            ("pm", Json.Float pm);
            ("gm", Json.Float gm);
            ("fm", Json.Float fm);
          ] );
      ( "gc_words_per_txn",
        Json.Obj
          [
            ("minor", Json.Float r.gc_minor_words_per_txn);
            ("promoted", Json.Float r.gc_promoted_words_per_txn);
            ("major", Json.Float r.gc_major_words_per_txn);
          ] );
    ]
