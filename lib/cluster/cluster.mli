(** Hyder II cluster simulation.

    Replaces the paper's 20-server / 10 GbE / CORFU-on-SSD testbed
    (Section 6.1) with a hybrid of real execution and discrete-event
    simulation:

    - {b Semantics run for real.}  Transactions execute against real
      retained snapshots, intentions are really serialized, and one shared
      {!Hyder_core.Pipeline} really melds every intention in log order.
      Because the pipeline is deterministic (Section 3.4), all simulated
      servers would compute identical results, so running it once suffices.
    - {b Costs are calibrated.}  Each stage's service time is a linear
      function of the work that intention booked into the pipeline's
      counters ({!work}), the executor's of its ops and encoded bytes,
      with coefficients from the committed {!Calibration}.  No clock is
      read, so a run is a pure function of its config and seed.
    - {b Queueing is simulated.}  Per-server resources (general-purpose
      cores shared by executors / deserialization / broadcast handling, plus
      core-pinned premeld / group-meld / final-meld threads, Section 5.2),
      the CORFU log (sequencer + striped storage units) and the TCP-style
      broadcast mesh are discrete-event queueing stations.  The log order —
      and hence every commit/abort decision — emerges from simulated
      contention, exactly as conflict-zone lengths do in the real system.

    Executor threads are closed-loop with a bounded in-flight window
    (the paper's 20 threads x 80 in-flight admission control). *)

type config = {
  servers : int;
  write_threads : int;  (** update executor threads per server (paper: 20) *)
  read_threads : int;  (** read-only executor threads per server (Fig 14) *)
  inflight_per_thread : int;  (** admission window per thread (paper: 80) *)
  adaptive_admission : Admission.config option;
      (** [Some _] enables the AIMD admission controller (the paper's
          "future work" §5.2) instead of the fixed window *)
  cores_per_server : int;  (** paper: 16 physical cores / 32 logical *)
  pipeline : Hyder_core.Pipeline.config;
  corfu : Hyder_log.Corfu.config;
  broadcast : Hyder_log.Broadcast.config;
  workload : Hyder_workload.Ycsb.config;
  duration : float;  (** simulated seconds of measurement *)
  warmup : float;  (** simulated seconds before measurement starts *)
  seed : int64;
  flight : Hyder_obs.Flight.t;
      (** per-transaction flight recorder threaded into the real
          pipeline ({!Hyder_obs.Flight.disabled} by default); its stage
          edges are wall-clock and never feed the simulation. *)
}

val default_config : config
(** 6 servers, the Section 6.1 workload defaults, premeld off. *)

type result = {
  write_tps : float;  (** committed write transactions per simulated second *)
  read_tps : float;
  total_tps : float;
  commit_count : int;
  abort_count : int;
  abort_rate : float;
  fm_nodes_per_txn : float;  (** Figure 11 *)
  pm_nodes_per_txn : float;  (** Figure 13 *)
  gm_nodes_per_txn : float;
  conflict_zone_intentions : float;
  conflict_zone_blocks : float;  (** Figure 12 *)
  ephemerals_per_txn : float;  (** Figure 24 *)
  intention_bytes : float;
  blocks_per_intention : float;
  appends_per_sec : float;
  stage_us : float * float * float * float;
      (** mean modelled (ds, pm, gm, fm) microseconds per intention *)
  gc_minor_words_per_txn : float;
      (** process-wide minor-heap words allocated per melded intention
          over the measurement window (exact: from [Gc.minor_words]) *)
  gc_promoted_words_per_txn : float;
      (** words promoted to the major heap per melded intention (from
          [Gc.quick_stat]; advances only at minor collections) *)
  gc_major_words_per_txn : float;
      (** words allocated directly on the major heap per melded
          intention (same quantization) *)
  abort_reasons : (string * int) list;
      (** in-window aborts at their origin server, keyed by
          {!Hyder_core.Pipeline.reason_slug} ([unknown] when the decision
          carries no reason), most frequent first *)
}

val work :
  before:Hyder_core.Counters.t ->
  Hyder_core.Counters.t ->
  bytes:int ->
  (int * int * int) array
(** [work ~before after ~bytes]: the work each stage booked between two
    counter readings around one submit of a [bytes]-byte intention, in
    pipeline order (ds, pm, gm, fm), as the [(runs, a, b)] counts its
    {!Calibration.model} prices: runs, nodes decoded and [bytes] for ds;
    runs ([intentions]), [nodes_visited] and [ephemerals] for the
    others.  [bench/main.exe calibrate] fits the models over these. *)

val run : config -> result
(** Run one experiment.  Wall-clock cost is dominated by really executing
    the write transactions and really melding their intentions once. *)

val pp_result : Format.formatter -> result -> unit

val result_to_json : result -> Hyder_obs.Json.t
(** Machine-readable form of {!result}, one key per field ([stage_us] and
    [abort_reasons] become nested objects). *)
