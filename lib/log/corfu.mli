(** Simulated CORFU shared-log service (Balakrishnan et al., TOCS 2013).

    The paper's log is CORFU: a sequencer hands out log positions, and blocks
    are striped round-robin across storage units (SSDs attached to log
    servers).  We reproduce the service's *queueing behaviour* with the
    discrete-event engine: a sequencer resource, one resource per storage
    unit, and network hops with configurable latency.  Block contents are
    stored for real, so reads return exactly what was appended.

    This is the substrate for Figure 9 (append throughput/latency) and for
    the cluster experiments, where it bounds achievable append bandwidth. *)

type config = {
  storage_units : int;  (** stripes; the paper uses 6 disk servers *)
  storage_parallelism : int;
      (** concurrent flash operations per unit (channel/NCQ parallelism) *)
  block_size : int;  (** page size in bytes; the paper uses 8K *)
  sequencer_time : float;  (** sequencer service time per token, seconds *)
  write_time : float;  (** mean storage time per block write (exponential) *)
  read_time : float;  (** mean storage time per block read (exponential) *)
  network_hop : float;  (** one-way client<->service latency *)
}

val default_config : config
(** Calibrated so the simulated service peaks a little above 140K
    appends/sec with sub-10ms p99, matching Section 6.3. *)

type t

val create :
  ?config:config -> ?faults:Hyder_sim.Faults.t -> Hyder_sim.Engine.t -> t
(** [faults] (default {!Hyder_sim.Faults.none}) injects storage-unit
    stalls into append/read service times and transient read failures;
    failed reads retry with doubling backoff until they succeed. *)

val config : t -> config

val append : t -> string -> (Log_intf.position -> unit) -> unit
(** Asynchronous append; the callback fires (in simulated time) when the
    block is durable, with its assigned position.  A caller that wants
    the append's latency stamps [Engine.now] before the call and reads it
    again in the callback. *)

val read : t -> Log_intf.position -> (string -> unit) -> unit
(** Asynchronous read of a previously appended block.  Under an injected
    transient failure the read retries with doubling backoff (bounded);
    the callback always eventually fires, in simulated time. *)

val length : t -> int
(** Positions handed out so far. *)

val appends_completed : t -> int

val read_retries : t -> int
(** Read attempts that failed transiently and were retried. *)

val stalls_injected : t -> int
(** Storage operations that drew an injected stall. *)
