open Hyder_core

(** Chaos harness: crash recovery and gap repair under a seeded fault
    schedule.

    The architecture's claim under test: the CORFU log is the {e ground
    truth} and the broadcast merely an optimization, so any combination of
    dropped, duplicated or delayed deliveries, storage stalls, transient
    read failures and server crashes must leave every server — including
    one restarted from a checkpoint — with {e bit-identical} trees,
    ephemeral node ids and work counters, equal to a fault-free run's.

    Both phases run {!Server}, the one per-server loop.  {b Phase A}
    melds a deterministic workload through one fault-free sequential
    server: waves of transactions execute against the wave-start
    last-committed state (so they genuinely conflict) and are framed into
    single log blocks.  Its decisions, tree digest and counters digest
    are the baseline.  {b Phase B} replays the same blocks through the
    simulated cluster: a paced publisher appends them to CORFU and
    broadcasts each on durability; each replica's server buffers
    out-of-order arrivals, drops duplicates and rejects corrupt blocks,
    and the replica repairs gaps from the log ({!Corfu.read}) after
    [repair_after] of no progress, checkpointing every [checkpoint_every]
    positions and pruning every [prune_every] — pure functions of log
    position, so every replica keeps identical retention windows.  A
    crashed replica keeps only its last checkpoint; on restart it
    restores the server from it and replays the log suffix. *)

type config = {
  servers : int;
  txns : int;  (** intentions appended to the log *)
  wave : int;  (** transactions executed against one snapshot *)
  pipeline : Pipeline.config;
  workload : Hyder_workload.Ycsb.config;
  corfu : Hyder_log.Corfu.config;
  broadcast : Hyder_log.Broadcast.config;
  faults : Hyder_sim.Faults.t;
  checkpoint_every : int;
      (** capture a checkpoint after melding every this-many positions;
          multiples of [group_size] land on group boundaries *)
  prune_every : int;
      (** prune every this-many positions, down to the states decode and
          premeld can still name: [wave + threads * distance +
          group_size + 2] *)
  repair_after : float;
      (** simulated seconds a gap may age before a CORFU repair read *)
  append_gap : float;  (** publisher pacing between appends *)
  seed : int64;  (** workload seed (fault seed lives in [faults]) *)
  flight_sink : out_channel option;
      (** when given, each replica gets its own flight recorder (records
          are keyed by log position and every replica melds every
          position, so a shared recorder would conflate them) streaming
          JSON lines to this shared channel, labeled [chaos/r<id>].
          Recorders survive crash/restart, so a replayed position emits a
          second record.  [None] (default) is the inert path. *)
}

val default_config : config

type replica_report = {
  id : int;
  alive : bool;
  melded : int;  (** log positions melded (= log length when caught up) *)
  tree_digest : string;
  counters_digest : string;
  commits : int;
  aborts : int;
  crashes : int;
  checkpoints : int;
  last_checkpoint_pos : int;  (** -1 if none captured *)
  restarted_from_pos : int;
      (** checkpoint position the last restart resumed from: -1 when it
          restarted from scratch, -2 when it never restarted *)
  replayed : int;
      (** positions re-melded while catching up after restarts; bounded by
          the log suffix after [restarted_from_pos] *)
  repair_reads : int;  (** gap-repair reads from the log *)
  duplicates_ignored : int;
  missed_while_down : int;
  caught_up_in : float;  (** simulated seconds from restart to caught-up *)
  decision_mismatches : int;
      (** decisions disagreeing with the baseline, re-melds after a
          restart included — always 0 on a correct run *)
}

type result = {
  log_length : int;
  converged : bool;
      (** every replica alive, fully melded, mismatch-free, with tree and
          counters digests equal to the fault-free baseline's *)
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

val run : config -> result
(** Deterministic: a pure function of [config] (including the fault
    schedule), identical across runs. *)

val counters_digest : Counters.t -> string
(** Digest over every deterministic counter — stage work records, commit
    and abort totals, summary counts and totals — excluding wall-clock
    seconds.  Equal digests mean the two pipelines did bit-identical
    work. *)

val result_to_json : result -> Hyder_obs.Json.t
val pp : Format.formatter -> result -> unit
