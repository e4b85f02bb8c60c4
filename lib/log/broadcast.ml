module Engine = Hyder_sim.Engine
module Resource = Hyder_sim.Resource
module Faults = Hyder_sim.Faults

type config = {
  propagation : float;
  per_byte : float;
  per_message : float;
}

(* 10 GbE: ~0.8 ns/byte on the wire; per-message overhead dominated by the
   TCP send path. *)
let default_config =
  { propagation = 20.0e-6; per_byte = 0.9e-9; per_message = 3.0e-6 }

type t = {
  engine : Engine.t;
  config : config;
  faults : Faults.t;
  nics : Resource.t array;  (** one egress NIC per sender *)
  receivers : int;
  mutable sent : int;  (** remote messages handed to a NIC *)
  mutable casts : int;  (** send calls; the fault schedule's message id *)
  mutable dropped : int;
  mutable duplicated : int;
  mutable delayed : int;
}

let create ?(config = default_config) ?(faults = Faults.none) engine ~senders
    ~receivers =
  if senders <= 0 || receivers <= 0 then invalid_arg "Broadcast.create";
  {
    engine;
    config;
    faults;
    nics = Array.init senders (fun _ -> Resource.create engine ~servers:1);
    receivers;
    sent = 0;
    casts = 0;
    dropped = 0;
    duplicated = 0;
    delayed = 0;
  }

let send t ~from ~size k =
  if from < 0 || from >= Array.length t.nics then
    invalid_arg "Broadcast.send: unknown sender";
  let msg = t.casts in
  t.casts <- msg + 1;
  (* Local delivery costs nothing — the sender already has the intention —
     but must still go through the event loop: a synchronous callback would
     reenter the server ahead of events already scheduled for this instant.
     It is also never dropped: losing your own intention is not a network
     fault. *)
  Engine.schedule t.engine ~delay:0.0 (fun () -> k ~receiver:from);
  let cost_per_peer =
    t.config.per_message +. (t.config.per_byte *. float_of_int size)
  in
  let nic = t.nics.(from) in
  for receiver = 0 to t.receivers - 1 do
    if receiver <> from then begin
      let fate = Faults.delivery t.faults ~from ~receiver ~msg in
      match fate with
      | Faults.Drop -> t.dropped <- t.dropped + 1
      | Faults.Deliver | Faults.Duplicate _ | Faults.Delay _ ->
          t.sent <- t.sent + 1;
          (* Occupy the egress NIC once per peer (unicast fan-out, as the
             TCP "broadcast" in the paper); propagation added after send
             completes. *)
          Resource.request nic ~service_time:cost_per_peer (fun () ->
              let deliver extra =
                Engine.schedule t.engine
                  ~delay:(t.config.propagation +. extra)
                  (fun () -> k ~receiver)
              in
              match fate with
              | Faults.Drop -> assert false
              | Faults.Deliver -> deliver 0.0
              | Faults.Delay d ->
                  t.delayed <- t.delayed + 1;
                  deliver d
              | Faults.Duplicate d ->
                  t.duplicated <- t.duplicated + 1;
                  deliver 0.0;
                  deliver d)
    end
  done

let messages_sent t = t.sent
let messages_dropped t = t.dropped
let messages_duplicated t = t.duplicated
let messages_delayed t = t.delayed
