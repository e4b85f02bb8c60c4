(** Simulated intention broadcast between transaction servers.

    After a server appends an intention it broadcasts the blocks to its
    peers (Section 5.2).  Section 5.3 reports that the UDP simulation lost
    packets under load and the switch to TCP — in-order, reliable, slightly
    more expensive — was a significant win.  We model the TCP variant: each
    (sender, receiver) pair is an ordered channel with a per-message service
    time (bandwidth share) plus propagation latency, so messages from one
    sender never arrive out of order.

    A {!Hyder_sim.Faults} schedule can drop, duplicate or delay individual
    remote deliveries — the broadcast is an optimization, so a receiver
    that misses a message must repair the gap from the shared log.  Local
    delivery (sender to itself) is never subject to faults but does go
    through the event loop, at zero delay, so it cannot reenter ahead of
    already-scheduled events. *)

type config = {
  propagation : float;  (** one-way wire latency, seconds *)
  per_byte : float;  (** serialization cost per byte on the sender NIC *)
  per_message : float;  (** fixed per-message CPU/NIC overhead *)
}

val default_config : config

type t

val create :
  ?config:config ->
  ?faults:Hyder_sim.Faults.t ->
  Hyder_sim.Engine.t ->
  senders:int ->
  receivers:int ->
  t

val send :
  t -> from:int -> size:int -> (receiver:int -> unit) -> unit
(** Broadcast a message of [size] bytes from server [from]; the callback
    fires once per receiver.  The sender's own delivery is scheduled at
    zero delay (not synchronously) and is exempt from faults; remote
    deliveries pay NIC service plus propagation and are subject to the
    fault schedule. *)

val messages_sent : t -> int
(** Remote messages handed to a NIC (local self-deliveries and dropped
    messages are not counted). *)

val messages_dropped : t -> int
val messages_duplicated : t -> int
val messages_delayed : t -> int
