(** Pluggable stage runtime for the meld pipeline.

    The pipeline is a deterministic semantic machine; {e how} its stages
    are scheduled onto hardware is this module's concern.  Two
    backends:

    - {b Sequential} — every stage runs inline on the caller, one
      intention at a time, in log order.  This is the original scheduler,
      preserved bit-for-bit: the cluster simulator measures its per-stage
      wall-clock and models physical parallelism on top of it.
    - {b Pipelined} — the whole pre-final-meld pipeline is staged across
      domains: deserialization runs on worker domains straight from wire
      buffers, premeld slices are dealt to workers per paper thread (each
      worker impersonates the paper premeld threads it is dealt, owning
      their ephemeral-id allocators and counter shards, Section 3.4), and
      group-meld combining is offloaded to a dedicated worker, all fed
      and drained through bounded SPSC queues ({!Hyder_util.Spsc_queue})
      with backpressure.  Final meld alone stays on the driver, in log
      order.  Stage assignment is a pure function of log position, and
      the driver consumes every queue in log order, so queues reorder
      wall-clock only — decisions, ephemeral ids and per-shard counters
      stay bit-identical to [Sequential].

    The determinism argument, concretely: each intention's stage is
    released only once its own inputs are recorded in the live state
    store — its snapshot state for the decode, its designated input
    state [v - t*d - 1] for the premeld trial — and the job carries them.
    A recorded input never changes (final meld only appends later
    states), so every job sees what the sequential scheduler sees at
    that intention's submit, and each paper thread's allocator stream
    advances in seq order on one worker.  Parallelism therefore changes
    wall-clock and nothing else; the cross-backend property test in
    [test/test_runtime.ml] checks exactly this. *)

type backend =
  | Sequential
  | Parallel of { domains : int }
      (** Not a backend: the domain-parallel premeld scheduler it named
          never beat [Sequential] and is deleted.  The constructor stays
          only because [benchmark/bench.ml] still pattern-matches it.
          Nothing builds it; {!Pipeline.create} and {!Pipeline.restore}
          reject it with [Invalid_argument], and {!to_string} too. *)
  | Pipelined of { domains : int }

val sequential : backend

val pipelined : domains:int -> backend
(** [domains >= 1], [Invalid_argument] otherwise. *)

val parse : string -> (backend, string) result
(** ["seq"] or ["pipe:<n>"]; bare ["pipe"] means two domains.  Anything
    else, [par:<n>] included, is an [Error] ending in
    [(want seq | pipe:<n>)]. *)

val to_string : backend -> string
(** Inverse of {!parse}. *)

(** Bounded worker fabric for the pipelined backend.

    [domains] worker domains, each fed by its own SPSC job queue and
    drained through its own SPSC result queue — the driver is the only
    producer of jobs and the only consumer of results, so every queue
    end is single-threaded.  Contract the driver must keep: at most
    {!Stage_pool.queue_capacity} results outstanding per worker, so a
    worker's result push can never fail and workers never block on the
    way out (this is what makes the fabric deadlock-free by
    construction).

    A worker exception cancels the fabric: the first exception is
    captured, every worker unwinds, and the exception re-raises on the
    driver from the next {!Stage_pool.wait} / submit / drain call.  After
    {!Stage_pool.shutdown}, those calls raise
    [Invalid_argument "Runtime.Stage_pool: used after shutdown"]. *)
module Stage_pool : sig
  type ('j, 'r) t

  val create :
    ?queue:int ->
    domains:int ->
    dummy_job:'j ->
    dummy_result:'r ->
    exec:(worker:int -> 'j -> 'r) ->
    unit ->
    ('j, 'r) t
  (** Spawn [domains] worker domains.  [queue] (default 32, rounded up
      to a power of two) bounds each job and each result queue.  [exec]
      runs on worker domains; it must only touch state the driver
      published before submitting the job (jobs for distinct workers
      must be pairwise independent). *)

  val domains : ('j, 'r) t -> int

  val queue_capacity : ('j, 'r) t -> int
  (** Per-queue bound after power-of-two rounding — also the driver's
      outstanding-results budget per worker. *)

  val submit_batch : ('j, 'r) t -> worker:int -> 'j array -> len:int -> int
  (** Driver only.  Push [buf.(0 .. len-1)] to worker [worker]'s job
      queue with one tail publication and at most one doorbell; returns
      how many were accepted (short iff the queue filled). *)

  val result_batch : ('j, 'r) t -> worker:int -> 'r array -> max:int -> int
  (** Driver only.  Pop up to [max] finished results into [buf] with one
      head publication; returns how many were popped. *)

  val doorbell_wakeups : ('j, 'r) t -> int
  (** Condvar round-trips the handoff actually paid for, cumulative:
      worker parks woken by a job push plus driver parks woken by a
      result doorbell.  Batching exists to shrink this. *)

  val events : ('j, 'r) t -> int
  (** Doorbell counter: bumped by workers after every result push.
      Sample it, drain, and {!wait} on the sampled value to park
      race-free until more results arrive. *)

  val wait : ('j, 'r) t -> seen:int -> unit
  (** Driver only.  Park until {!events} differs from [seen] (i.e. some
      worker pushed a result after the driver sampled [seen]).  Returns
      immediately if it already differs.  Re-raises a captured worker
      exception. *)

  val shutdown : ('j, 'r) t -> unit
  (** Stop and join every worker domain.  Idempotent.  Re-raises a
      captured worker exception after the join. *)
end
