module Engine = Hyder_sim.Engine
module Faults = Hyder_sim.Faults
module Corfu = Hyder_log.Corfu
module Broadcast = Hyder_log.Broadcast
module Tree = Hyder_tree.Tree
module Codec = Hyder_codec.Codec
module Executor = Hyder_core.Executor
module Pipeline = Hyder_core.Pipeline
module Server = Hyder_core.Server
module Premeld = Hyder_core.Premeld
module Counters = Hyder_core.Counters
module Ycsb = Hyder_workload.Ycsb
module Stats = Hyder_util.Stats
module Flight = Hyder_obs.Flight
module Json = Hyder_obs.Json

type config = {
  servers : int;
  txns : int;
  wave : int;
  pipeline : Pipeline.config;
  workload : Ycsb.config;
  corfu : Corfu.config;
  broadcast : Broadcast.config;
  faults : Faults.t;
  checkpoint_every : int;
  prune_every : int;
  repair_after : float;
  append_gap : float;
  seed : int64;
  flight_sink : out_channel option;
}

let default_config =
  {
    servers = 3;
    txns = 600;
    wave = 16;
    pipeline =
      {
        Pipeline.premeld = Some { Premeld.threads = 2; distance = 4 };
        group_size = 2;
      };
    workload =
      {
        Ycsb.default with
        record_count = 10_000;
        payload_size = 32;
        ops_per_txn = 8;
        update_fraction = 0.5;
      };
    (* one intention = one log block, so a broadcast gap is repairable
       with a single CORFU read *)
    corfu = { Corfu.default_config with block_size = 65536 };
    broadcast = Broadcast.default_config;
    faults = Faults.none;
    checkpoint_every = 64;
    prune_every = 32;
    repair_after = 1.0e-3;
    append_gap = 2.0e-5;
    seed = 0xC0FFEEL;
    flight_sink = None;
  }

type replica_report = {
  id : int;
  alive : bool;
  melded : int;
  tree_digest : string;
  counters_digest : string;
  commits : int;
  aborts : int;
  crashes : int;
  checkpoints : int;
  last_checkpoint_pos : int;
  restarted_from_pos : int;
  replayed : int;
  repair_reads : int;
  duplicates_ignored : int;
  missed_while_down : int;
  caught_up_in : float;
  decision_mismatches : int;
}

type result = {
  log_length : int;
  converged : bool;
  baseline_tree_digest : string;
  baseline_counters_digest : string;
  baseline_commits : int;
  baseline_aborts : int;
  replicas : replica_report list;
  dropped : int;
  duplicated : int;
  delayed : int;
  read_retries : int;
  stalls : int;
  sim_seconds : float;
}

(* Digest of everything in the counters that must be bit-identical across
   replicas and crash/recovery — i.e. everything except wall-clock
   seconds and minor words, which measure the host and the build, not
   the computation. *)
let counters_digest (c : Counters.t) =
  let b = Buffer.create 256 in
  let stage name (s : Counters.stage) =
    Printf.bprintf b "%s:%d/%d/%d/%d/%d;" name s.Counters.intentions
      s.Counters.nodes_visited s.Counters.ephemerals s.Counters.grafts
      s.Counters.aborts
  in
  let summary name s =
    Printf.bprintf b "%s:%d/%.17g;" name (Stats.Summary.count s)
      (Stats.Summary.total s)
  in
  stage "ds" c.Counters.deserialize;
  stage "pm" c.Counters.premeld;
  stage "gm" c.Counters.group_meld;
  stage "fm" c.Counters.final_meld;
  Printf.bprintf b "committed:%d;aborted:%d;" c.Counters.committed
    c.Counters.aborted;
  summary "conflict_zone" c.Counters.conflict_zone;
  summary "fm_nodes" c.Counters.fm_nodes_per_txn;
  summary "bytes" c.Counters.intention_bytes;
  Digest.to_hex (Digest.string (Buffer.contents b))

let premeld_window (cfg : config) =
  match cfg.pipeline.Pipeline.premeld with
  | None -> 0
  | Some p -> p.Premeld.threads * p.Premeld.distance

let validate (cfg : config) =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  if cfg.servers < 1 then fail "Replica: servers must be >= 1";
  if cfg.txns < 1 then fail "Replica: txns must be >= 1";
  if cfg.wave < 1 then fail "Replica: wave must be >= 1";
  if cfg.checkpoint_every < 1 then fail "Replica: checkpoint_every must be >= 1";
  if cfg.prune_every < 1 then fail "Replica: prune_every must be >= 1";
  if cfg.append_gap <= 0.0 then fail "Replica: append_gap must be > 0";
  if cfg.repair_after <= 0.0 then fail "Replica: repair_after must be > 0"

(* States a prune keeps: as far back as a wave's snapshot, the premeld
   window and a filling group reach, plus the two [Pipeline.prune] keeps
   beyond its own premeld floor.  Decode and premeld never name an older
   state. *)
let prune_keep (cfg : config) =
  cfg.wave + premeld_window cfg + cfg.pipeline.Pipeline.group_size + 2

(* The prune/checkpoint cadence is a pure function of the melded log
   position, so every replica — including one rebuilt from a checkpoint —
   maintains a bit-identical retention window.  Any drift here would show
   up as diverging premeld snapshot arithmetic and break convergence. *)
let due ~every pos = (pos + 1) mod every = 0

(* {1 Phase A: deterministic workload generation + fault-free baseline}

   One sequential server plays "the cluster without faults": waves of
   transactions execute concurrently against the wave-start LCS (so they
   genuinely conflict), are encoded, framed and melded through the same
   per-server loop the replicas run.  Its decisions, final tree and
   counters are the ground truth every faulty replica must reproduce
   bit-for-bit. *)

type generated = {
  genesis : Tree.t;
  blocks : string array;  (** framed wire block per log position *)
  origins : int array;  (** issuing server per log position *)
  baseline : (int * int * bool) array;
      (** per position: (server, txn_seq, committed) *)
  base_tree_digest : string;
  base_counters_digest : string;
  base_commits : int;
  base_aborts : int;
}

let generate (cfg : config) =
  let workload = Ycsb.create ~seed:cfg.seed cfg.workload in
  let genesis = Ycsb.genesis workload in
  let server = Server.create ~config:cfg.pipeline ~server_id:0 ~genesis () in
  Server.on_meld server (fun ~pos ->
      if due ~every:cfg.prune_every pos then
        Server.prune server ~keep:(prune_keep cfg));
  let blocks = ref [] and origins = ref [] in
  let decisions : (int, int * int * bool) Hashtbl.t = Hashtbl.create 64 in
  let record ds =
    List.iter
      (fun (d : Pipeline.decision) ->
        Hashtbl.replace decisions d.Pipeline.pos
          (d.Pipeline.server, d.Pipeline.txn_seq, d.Pipeline.committed))
      ds
  in
  let npos = ref 0 and txn_seq = ref 0 and appended = ref 0 in
  let encoder = Codec.Encoder.create () in
  while !appended < cfg.txns do
    let _, lcs_pos, lcs_tree = Server.lcs server in
    let want = min cfg.wave (cfg.txns - !appended) in
    (* Execute the whole wave against the wave-start state before melding
       any member, the way concurrently issuing servers would. *)
    let drafts = ref [] in
    for i = 0 to want - 1 do
      let origin = (!appended + i) mod cfg.servers in
      let ts = !txn_seq in
      incr txn_seq;
      let e =
        Executor.begin_txn ~snapshot_pos:lcs_pos ~snapshot:lcs_tree
          ~server:origin ~txn_seq:ts ~isolation:cfg.workload.Ycsb.isolation ()
      in
      Ycsb.apply (Ycsb.next_write_txn workload) e;
      match Executor.finish e with
      | Some draft -> drafts := (origin, ts, draft) :: !drafts
      | None ->
          failwith
            "Replica.generate: read-only draft; the workload needs \
             update_fraction > 0"
    done;
    List.iter
      (fun (origin, ts, draft) ->
        let bytes = Codec.Encoder.encode encoder draft in
        let framed =
          match
            Codec.Blocks.split ~block_size:cfg.corfu.Corfu.block_size
              ~server:origin ~txn_seq:ts bytes
          with
          | [ b ] -> b
          | l ->
              failwith
                (Printf.sprintf
                   "Replica.generate: intention of %d bytes needs %d blocks; \
                    raise corfu.block_size"
                   (String.length bytes) (List.length l))
        in
        let pos = !npos in
        incr npos;
        incr appended;
        blocks := framed :: !blocks;
        origins := origin :: !origins;
        match Server.observe_block server ~pos framed with
        | Server.Accepted ds -> record ds
        | Server.Duplicate | Server.Rejected ->
            failwith "Replica.generate: own block not accepted")
      (List.rev !drafts)
  done;
  record (Server.flush server);
  let n = !npos in
  let baseline =
    Array.init n (fun pos ->
        match Hashtbl.find_opt decisions pos with
        | Some d -> d
        | None ->
            failwith
              (Printf.sprintf "Replica.generate: position %d never decided" pos))
  in
  let _, _, tree = Server.lcs server in
  let c = Server.counters server in
  {
    genesis;
    blocks = Array.of_list (List.rev !blocks);
    origins = Array.of_list (List.rev !origins);
    baseline;
    base_tree_digest = Tree.digest tree;
    base_counters_digest = counters_digest c;
    base_commits = c.Counters.committed;
    base_aborts = c.Counters.aborted;
  }

(* {1 Phase B: the faulty cluster} *)

type rep = {
  id : int;
  mutable server : Server.t;  (** replaced on restart *)
  mutable down : bool;
  mutable pending_restarts : int;
  mutable replaying : bool;
  mutable replay_target : int;
  mutable restart_time : float;
  mutable repair_in_flight : bool;
  mutable gap_timer : bool;
  mutable last_ckpt : Server.checkpoint option;
  mutable restarted_from : int;
  mutable checkpoints : int;
  mutable crashes : int;
  mutable replayed : int;
  mutable repair_reads : int;
  mutable dup_ignored : int;
  mutable missed_down : int;
  mutable caught_up_in : float;
  mutable mismatches : int;
  flight : Flight.t;  (** survives restarts; see [config.flight_sink] *)
}

let run (cfg : config) =
  validate cfg;
  let g = generate cfg in
  let n = Array.length g.blocks in
  let eng = Engine.create () in
  let corfu = Corfu.create ~config:cfg.corfu ~faults:cfg.faults eng in
  let bcast =
    Broadcast.create ~config:cfg.broadcast ~faults:cfg.faults eng
      ~senders:cfg.servers ~receivers:cfg.servers
  in
  let flight_for id =
    match cfg.flight_sink with
    | None -> Flight.disabled
    | Some oc ->
        Flight.create ~label:(Printf.sprintf "chaos/r%d" id) ~sink:oc ()
  in
  let boot ~flight id = function
    | Some c ->
        Server.restore ~config:cfg.pipeline ~flight ~server_id:id c
    | None ->
        Server.create ~config:cfg.pipeline ~flight ~server_id:id
          ~genesis:g.genesis ()
  in
  let reps =
    Array.init cfg.servers (fun id ->
        let flight = flight_for id in
        {
          id;
          server = boot ~flight id None;
          down = false;
          pending_restarts = 0;
          replaying = false;
          replay_target = -1;
          restart_time = 0.0;
          repair_in_flight = false;
          gap_timer = false;
          last_ckpt = None;
          restarted_from = -2;
          checkpoints = 0;
          crashes = 0;
          replayed = 0;
          repair_reads = 0;
          dup_ignored = 0;
          missed_down = 0;
          caught_up_in = 0.0;
          mismatches = 0;
          flight;
        })
  in
  (* A position re-melded after a crash is checked against the baseline
     again, so it must reproduce the same decision. *)
  let record_decisions r ds =
    List.iter
      (fun (d : Pipeline.decision) ->
        let pos = d.Pipeline.pos in
        if pos >= 0 && pos < n then
          let bs, bt, bc = g.baseline.(pos) in
          if
            bs <> d.Pipeline.server || bt <> d.Pipeline.txn_seq
            || bc <> d.Pipeline.committed
          then r.mismatches <- r.mismatches + 1)
      ds
  in
  let next_pos r = Server.next_pos r.server in
  (* Runs inside [Server.observe_block], once per fed position. *)
  let melded r ~pos =
    if r.replaying then r.replayed <- r.replayed + 1;
    if due ~every:cfg.prune_every pos then
      Server.prune r.server ~keep:(prune_keep cfg);
    (if due ~every:cfg.checkpoint_every pos then
       match Server.checkpoint r.server with
       | Some c ->
           r.last_ckpt <- Some c;
           r.checkpoints <- r.checkpoints + 1
       | None -> () (* mid-group; next boundary will do *));
    if r.replaying && pos + 1 > r.replay_target then begin
      r.replaying <- false;
      r.caught_up_in <- r.caught_up_in +. (Engine.now eng -. r.restart_time)
    end
  in
  Array.iter (fun r -> Server.on_meld r.server (melded r)) reps;
  let rec arm_gap_timer r =
    (* A later position is buffered but the next one is missing: give the
       broadcast [repair_after] to close the gap by itself (out-of-order
       durability is routine), then fall back to the log. *)
    if
      (not r.down) && (not r.replaying) && (not r.gap_timer) && next_pos r < n
      && Server.buffered r.server > 0
    then begin
      r.gap_timer <- true;
      let target = next_pos r in
      Engine.schedule eng ~delay:cfg.repair_after (fun () ->
          r.gap_timer <- false;
          if (not r.down) && (not r.replaying) && next_pos r = target then
            repair r;
          arm_gap_timer r)
    end
  and repair r =
    if (not r.repair_in_flight) && next_pos r < Corfu.length corfu then begin
      r.repair_in_flight <- true;
      let target = next_pos r in
      r.repair_reads <- r.repair_reads + 1;
      Corfu.read corfu target (fun block ->
          r.repair_in_flight <- false;
          if (not r.down) && (not r.replaying) && next_pos r = target then
            ingest r ~pos:target block)
    end
  and ingest r ~pos block =
    (* A rejected block counts as a delivery that never arrived: the gap
       timer repairs it from the log. *)
    if r.down then r.missed_down <- r.missed_down + 1
    else
      match Server.observe_block r.server ~pos block with
      | Server.Accepted ds ->
          record_decisions r ds;
          arm_gap_timer r
      | Server.Duplicate -> r.dup_ignored <- r.dup_ignored + 1
      | Server.Rejected -> ()
  and replay_step r =
    if (not r.down) && r.replaying then
      if next_pos r > r.replay_target then () (* [melded] cleared the flag *)
      else begin
        let target = next_pos r in
        Corfu.read corfu target (fun block ->
            if (not r.down) && r.replaying then begin
              (* a live delivery may have melded [target] meanwhile *)
              if next_pos r = target then ingest r ~pos:target block;
              replay_step r
            end)
      end
  and restart r =
    r.pending_restarts <- r.pending_restarts - 1;
    if r.down then begin
      r.down <- false;
      r.restart_time <- Engine.now eng;
      r.server <- boot ~flight:r.flight r.id r.last_ckpt;
      Server.on_meld r.server (melded r);
      r.restarted_from <- next_pos r - 1;
      let tail = Corfu.length corfu - 1 in
      r.replay_target <- tail;
      if tail >= next_pos r then begin
        r.replaying <- true;
        replay_step r
      end
    end
  in
  let crash r =
    if not r.down then begin
      r.down <- true;
      r.crashes <- r.crashes + 1;
      r.replaying <- false
    end
  in
  (* publisher: appends paced on the simulated clock; the constant
     client->sequencer hop preserves schedule order, so position = index *)
  Array.iteri
    (fun pos block ->
      Engine.schedule_at eng
        ~time:(Float.of_int pos *. cfg.append_gap)
        (fun () ->
          Corfu.append corfu block (fun assigned ->
              if assigned <> pos then failwith "Replica: log position drift";
              Broadcast.send bcast ~from:g.origins.(pos)
                ~size:(String.length block) (fun ~receiver ->
                  ingest reps.(receiver) ~pos block))))
    g.blocks;
  (* crash/restart schedule *)
  List.iter
    (fun (c : Faults.crash) ->
      if c.Faults.server >= 0 && c.Faults.server < cfg.servers then begin
        let r = reps.(c.Faults.server) in
        r.pending_restarts <- r.pending_restarts + 1;
        Engine.schedule_at eng ~time:c.Faults.at (fun () -> crash r);
        Engine.schedule_at eng
          ~time:(c.Faults.at +. c.Faults.restart_after)
          (fun () -> restart r)
      end)
    (Faults.crashes cfg.faults);
  (* tail sweep: once the publisher is done, a dropped delivery with no
     later arrival leaves no gap signal — poll the log until caught up *)
  let sweep_start = (Float.of_int n *. cfg.append_gap) +. cfg.repair_after in
  Array.iter
    (fun r ->
      let rec sweep () =
        if next_pos r < n && ((not r.down) || r.pending_restarts > 0) then begin
          if (not r.down) && not r.replaying then repair r;
          Engine.schedule eng ~delay:cfg.repair_after sweep
        end
      in
      Engine.schedule_at eng ~time:sweep_start sweep)
    reps;
  Engine.run eng;
  let sim_seconds = Engine.now eng in
  Array.iter
    (fun r -> if not r.down then record_decisions r (Server.flush r.server))
    reps;
  let reports =
    Array.to_list
      (Array.map
         (fun r ->
           let _, _, tree = Server.lcs r.server in
           let c = Server.counters r.server in
           {
             id = r.id;
             alive = not r.down;
             melded = next_pos r;
             tree_digest = Tree.digest tree;
             counters_digest = counters_digest c;
             commits = c.Counters.committed;
             aborts = c.Counters.aborted;
             crashes = r.crashes;
             checkpoints = r.checkpoints;
             last_checkpoint_pos =
               (match r.last_ckpt with
               | Some c -> Server.replay_from c - 1
               | None -> -1);
             restarted_from_pos = r.restarted_from;
             replayed = r.replayed;
             repair_reads = r.repair_reads;
             duplicates_ignored = r.dup_ignored;
             missed_while_down = r.missed_down;
             caught_up_in = r.caught_up_in;
             decision_mismatches = r.mismatches;
           })
         reps)
  in
  let converged =
    Array.for_all
      (fun r -> (not r.down) && next_pos r = n && r.mismatches = 0)
      reps
    && List.for_all
         (fun rep ->
           rep.tree_digest = g.base_tree_digest
           && rep.counters_digest = g.base_counters_digest)
         reports
  in
  {
    log_length = n;
    converged;
    baseline_tree_digest = g.base_tree_digest;
    baseline_counters_digest = g.base_counters_digest;
    baseline_commits = g.base_commits;
    baseline_aborts = g.base_aborts;
    replicas = reports;
    dropped = Broadcast.messages_dropped bcast;
    duplicated = Broadcast.messages_duplicated bcast;
    delayed = Broadcast.messages_delayed bcast;
    read_retries = Corfu.read_retries corfu;
    stalls = Corfu.stalls_injected corfu;
    sim_seconds;
  }

let replica_to_json (r : replica_report) =
  Json.Obj
    [
      ("id", Json.Int r.id);
      ("alive", Json.Bool r.alive);
      ("melded", Json.Int r.melded);
      ("tree_digest", Json.String r.tree_digest);
      ("counters_digest", Json.String r.counters_digest);
      ("commits", Json.Int r.commits);
      ("aborts", Json.Int r.aborts);
      ("crashes", Json.Int r.crashes);
      ("checkpoints", Json.Int r.checkpoints);
      ("last_checkpoint_pos", Json.Int r.last_checkpoint_pos);
      ("restarted_from_pos", Json.Int r.restarted_from_pos);
      ("replayed", Json.Int r.replayed);
      ("repair_reads", Json.Int r.repair_reads);
      ("duplicates_ignored", Json.Int r.duplicates_ignored);
      ("missed_while_down", Json.Int r.missed_while_down);
      ("caught_up_in_seconds", Json.Float r.caught_up_in);
      ("decision_mismatches", Json.Int r.decision_mismatches);
    ]

let result_to_json (t : result) =
  Json.Obj
    [
      ("log_length", Json.Int t.log_length);
      ("converged", Json.Bool t.converged);
      ("baseline_tree_digest", Json.String t.baseline_tree_digest);
      ("baseline_counters_digest", Json.String t.baseline_counters_digest);
      ("baseline_commits", Json.Int t.baseline_commits);
      ("baseline_aborts", Json.Int t.baseline_aborts);
      ("messages_dropped", Json.Int t.dropped);
      ("messages_duplicated", Json.Int t.duplicated);
      ("messages_delayed", Json.Int t.delayed);
      ("corfu_read_retries", Json.Int t.read_retries);
      ("corfu_stalls_injected", Json.Int t.stalls);
      ("sim_seconds", Json.Float t.sim_seconds);
      ("replicas", Json.List (List.map replica_to_json t.replicas));
    ]

let pp ppf (t : result) =
  Format.fprintf ppf
    "chaos: %d positions, %s | dropped %d dup %d delayed %d retries %d \
     stalls %d | sim %.4fs@\n"
    t.log_length
    (if t.converged then "CONVERGED" else "DIVERGED")
    t.dropped t.duplicated t.delayed t.read_retries t.stalls t.sim_seconds;
  Format.fprintf ppf "baseline: commits %d aborts %d tree %s@\n"
    t.baseline_commits t.baseline_aborts t.baseline_tree_digest;
  List.iter
    (fun (r : replica_report) ->
      Format.fprintf ppf
        "  server %d: %s melded %d commits %d aborts %d crashes %d ckpts %d \
         replayed %d repairs %d dups %d caught-up %.4fs tree %s%s@\n"
        r.id
        (if r.alive then "up" else "DOWN")
        r.melded r.commits r.aborts r.crashes r.checkpoints r.replayed
        r.repair_reads r.duplicates_ignored r.caught_up_in r.tree_digest
        (if r.decision_mismatches > 0 then
           Printf.sprintf " MISMATCHES %d" r.decision_mismatches
         else ""))
    t.replicas
