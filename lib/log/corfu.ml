module Engine = Hyder_sim.Engine
module Resource = Hyder_sim.Resource
module Faults = Hyder_sim.Faults

type config = {
  storage_units : int;
  storage_parallelism : int;
      (** concurrent flash operations per unit (channel/NCQ parallelism) *)
  block_size : int;
  sequencer_time : float;
  write_time : float;  (** mean; actual draws are exponential *)
  read_time : float;
  network_hop : float;
}

(* Calibration: the sequencer saturates near 145K tokens/s; each stripe
   write is an SSD program (~0.65 ms) but units run 16 deep, so the six
   units jointly sustain ~147K writes/s.  Peak append rate lands a little
   above 140K/s with sub-millisecond unloaded latency, matching Figure 9
   and the paper's Section 6.3. *)
let default_config =
  {
    storage_units = 6;
    storage_parallelism = 16;
    block_size = 8192;
    sequencer_time = 6.9e-6;
    write_time = 0.65e-3;
    read_time = 0.55e-3;
    network_hop = 22.0e-6;
  }

type t = {
  engine : Engine.t;
  config : config;
  faults : Faults.t;
  sequencer : Resource.t;
  units : Resource.t array;
  store : Mem_log.t;
  rng : Hyder_util.Rng.t;
  mutable completed : int;
  mutable read_retries : int;
  mutable stalls : int;
}

let create ?(config = default_config) ?(faults = Faults.none) engine =
  {
    engine;
    config;
    faults;
    sequencer = Resource.create engine ~servers:1;
    units =
      Array.init config.storage_units (fun _ ->
          Resource.create engine ~servers:config.storage_parallelism);
    store = Mem_log.create ~block_size:config.block_size ();
    rng = Hyder_util.Rng.create 0xC0FF33L;
    completed = 0;
    read_retries = 0;
    stalls = 0;
  }

let config t = t.config
let length t = Mem_log.length t.store
let appends_completed t = t.completed

(* Fault-injected extra service time for the storage operation on [pos];
   bumps the stall counter when the schedule selects the event. *)
let stall_for t ~unit_id ~pos ~write =
  let extra = Faults.stall t.faults ~unit_id ~pos ~write in
  if extra > 0.0 then t.stalls <- t.stalls + 1;
  extra

let append t block k =
  (* Client -> sequencer hop, token grant, then the stripe write on the unit
     owning (pos mod stripes), then the acknowledgement hop back. *)
  Engine.schedule t.engine ~delay:t.config.network_hop (fun () ->
      Resource.request t.sequencer ~service_time:t.config.sequencer_time
        (fun () ->
          let pos = Mem_log.append t.store block in
          let unit_id = pos mod Array.length t.units in
          let unit = t.units.(unit_id) in
          let service =
            Hyder_util.Rng.exponential t.rng ~mean:t.config.write_time
            +. stall_for t ~unit_id ~pos ~write:true
          in
          Resource.request unit ~service_time:service (fun () ->
              Engine.schedule t.engine ~delay:t.config.network_hop (fun () ->
                  t.completed <- t.completed + 1;
                  k pos))))

(* Transient read failures retry with doubling backoff.  The failure draw
   is pure per (pos, attempt), so any fixed failure probability < 1
   terminates with probability 1; the backoff keeps a flaky unit from
   being hammered in simulated time. *)
let read_backoff_base = 0.5e-3
let read_backoff_cap = 8.0e-3

let read t pos k =
  let rec attempt n =
    Engine.schedule t.engine ~delay:t.config.network_hop (fun () ->
        let unit_id = pos mod Array.length t.units in
        let unit = t.units.(unit_id) in
        let service =
          Hyder_util.Rng.exponential t.rng ~mean:t.config.read_time
          +. stall_for t ~unit_id ~pos ~write:false
        in
        Resource.request unit ~service_time:service (fun () ->
            if Faults.read_fails t.faults ~pos ~attempt:n then begin
              t.read_retries <- t.read_retries + 1;
              let backoff =
                Float.min read_backoff_cap
                  (read_backoff_base *. Float.of_int (1 lsl min n 10))
              in
              Engine.schedule t.engine ~delay:backoff (fun () ->
                  attempt (n + 1))
            end
            else begin
              let block = Mem_log.read t.store pos in
              Engine.schedule t.engine ~delay:t.config.network_hop (fun () ->
                  k block)
            end))
  in
  attempt 0

let read_retries t = t.read_retries
let stalls_injected t = t.stalls
