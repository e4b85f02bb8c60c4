(** Frozen runtime descriptors, kept only for [benchmark/].

    Every pipeline stage runs inline on the caller, one intention at a
    time, in log order: there is one scheduler.  The cluster simulator
    measures its per-stage wall-clock and models the paper's threaded
    pipeline (Section 3.4) on top of it.  The domain-parallel backends
    these constructors once named are deleted (DESIGN.md, "Worker-domain
    backends: history"); [benchmark/bench.ml] still builds and matches
    them, so the type stays until that harness drops them. *)

type backend =
  | Sequential
  | Parallel of { domains : int }
      (** Nothing builds it; {!Pipeline.create} rejects it with
          [Invalid_argument]. *)
  | Pipelined of { domains : int }
      (** Accepted by {!Pipeline.create}, which runs the one scheduler
          and spawns no domain. *)

val sequential : backend

val pipelined : domains:int -> backend
(** [domains >= 1], [Invalid_argument] otherwise. *)
