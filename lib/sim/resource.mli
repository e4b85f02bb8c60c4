(** Multi-server FIFO queueing resource for the simulator.

    Models a component with [servers] identical service units (e.g. an SSD
    storage unit with an internal queue, a NIC port, a CPU core).  Requests
    queue in arrival order; each occupies one unit for its service time and
    then fires its completion callback. *)

type t

val create : Engine.t -> servers:int -> t

val request : t -> service_time:float -> (unit -> unit) -> unit
(** Enqueue work taking [service_time] simulated seconds; the callback runs
    at completion time. *)

val queue_length : t -> int
(** Requests waiting (excluding those in service). *)

val busy_time : t -> float
(** Accumulated unit-seconds of service performed; divide by
    [servers * elapsed] for utilization. *)

val completed : t -> int
