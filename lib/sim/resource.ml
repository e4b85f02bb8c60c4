type request = { service_time : float; k : unit -> unit }

type t = {
  engine : Engine.t;
  servers : int;
  queue : request Queue.t;
  mutable in_service : int;
  mutable busy_time : float;
  mutable completed : int;
}

let create engine ~servers =
  if servers <= 0 then invalid_arg "Resource.create: servers must be positive";
  { engine; servers; queue = Queue.create (); in_service = 0; busy_time = 0.0; completed = 0 }

let rec start t req =
  t.in_service <- t.in_service + 1;
  Engine.schedule t.engine ~delay:req.service_time (fun () ->
      t.in_service <- t.in_service - 1;
      t.busy_time <- t.busy_time +. req.service_time;
      t.completed <- t.completed + 1;
      req.k ();
      dispatch t)

and dispatch t =
  if t.in_service < t.servers && not (Queue.is_empty t.queue) then
    start t (Queue.pop t.queue)

let request t ~service_time k =
  let req = { service_time; k } in
  if t.in_service < t.servers then start t req else Queue.push req t.queue

let queue_length t = Queue.length t.queue
let busy_time t = t.busy_time
let completed t = t.completed
