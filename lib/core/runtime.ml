module Spsc_queue = Hyder_util.Spsc_queue

type backend =
  | Sequential
  | Parallel of { domains : int }
  | Pipelined of { domains : int }

let sequential = Sequential

let pipelined ~domains =
  if domains < 1 then invalid_arg "Runtime.pipelined: domains";
  Pipelined { domains }

let parse s =
  let domains n =
    match int_of_string_opt n with
    | Some d when d >= 1 -> Ok d
    | Some _ | None ->
        Error (Printf.sprintf "bad domain count %S in runtime spec" n)
  in
  match String.split_on_char ':' (String.trim s) with
  | [ "seq" ] | [ "sequential" ] -> Ok Sequential
  | [ "pipe" ] | [ "pipelined" ] -> Ok (Pipelined { domains = 2 })
  | [ ("pipe" | "pipelined"); n ] ->
      Result.map (fun domains -> Pipelined { domains }) (domains n)
  | _ ->
      Error (Printf.sprintf "unknown runtime %S (want seq | pipe:<n>)" s)

let to_string = function
  | Sequential -> "seq"
  | Pipelined { domains } -> Printf.sprintf "pipe:%d" domains
  | Parallel _ -> invalid_arg "Runtime.to_string: Parallel is not a backend"

(* ------------------------------------------------------------------ *)
(* Stage pool: the pipelined backend's worker fabric                    *)
(* ------------------------------------------------------------------ *)

module Stage_pool = struct
  type ('j, 'r) t = {
    domains : int;
    jobs : 'j Spsc_queue.t array;  (** driver -> worker [w] *)
    results : 'r Spsc_queue.t array;  (** worker [w] -> driver *)
    stop : bool Atomic.t;
    failure : exn option Atomic.t;
    (* Doorbell: workers bump [events] after every result push; the
       driver parks on it when it has nothing runnable.  Dekker-style
       handshake: the driver publishes [parked] (SC) before re-checking
       [events]; a worker bumps [events] (SC) before reading [parked] —
       sequential consistency guarantees at least one side sees the
       other, so no wakeup is lost. *)
    events : int Atomic.t;
    parked : bool Atomic.t;
    mutable driver_wakeups : int;
        (** times the parked driver was actually woken; driver-written *)
    lock : Mutex.t;
    cond : Condition.t;
    mutable handles : unit Domain.t array;
    mutable shut : bool;
  }

  let ring_doorbell t =
    Atomic.incr t.events;
    if Atomic.get t.parked then begin
      Mutex.lock t.lock;
      Condition.broadcast t.cond;
      Mutex.unlock t.lock
    end

  (* First failure wins; losers are dropped (they are almost always the
     cascade of the first).  Waking every job queue lets sibling workers
     observe [stop] even while parked. *)
  let fail t e =
    ignore (Atomic.compare_and_set t.failure None (Some e) : bool);
    Atomic.set t.stop true;
    Array.iter Spsc_queue.wake t.jobs;
    ring_doorbell t

  (* Workers run batched: one blocking pop wakes the worker, then it
     opportunistically drains whatever else is already queued (a single
     head publication), executes the whole run, and pushes every result
     with a single tail publication and one doorbell.  The driver's
     outstanding-[qcap] budget guarantees the result push always fits
     (results in the ring + results in hand never exceed jobs in
     flight), so a short push here is a driver bug, not backpressure. *)
  let worker_loop t ~exec ~dummy_job ~dummy_result w =
    let jq = t.jobs.(w) and rq = t.results.(w) in
    let cap = Spsc_queue.capacity jq in
    let jbuf = Array.make cap dummy_job in
    let rbuf = Array.make cap dummy_result in
    let rec go () =
      match Spsc_queue.pop jq ~cancel:(fun () -> Atomic.get t.stop) with
      | None -> ()
      | Some j -> (
          match
            rbuf.(0) <- exec ~worker:w j;
            let n = ref 1 in
            let more = Spsc_queue.pop_batch jq jbuf ~max:(cap - 1) in
            for i = 0 to more - 1 do
              rbuf.(!n) <- exec ~worker:w jbuf.(i);
              jbuf.(i) <- dummy_job;
              incr n
            done;
            !n
          with
          | n ->
              let pushed = Spsc_queue.push_batch rq rbuf ~len:n in
              Array.fill rbuf 0 n dummy_result;
              if pushed = n then begin
                ring_doorbell t;
                go ()
              end
              else
                fail t
                  (Failure
                     "Runtime.Stage_pool: result queue overflow (driver \
                      exceeded its outstanding budget)")
          | exception e -> fail t e)
    in
    go ()

  let create ?(queue = 32) ~domains ~dummy_job ~dummy_result ~exec () =
    if domains < 1 then invalid_arg "Runtime.Stage_pool.create: domains";
    if queue < 1 then invalid_arg "Runtime.Stage_pool.create: queue";
    let t =
      {
        domains;
        jobs =
          Array.init domains (fun _ ->
              Spsc_queue.create ~capacity:queue ~dummy:dummy_job ());
        results =
          Array.init domains (fun _ ->
              Spsc_queue.create ~capacity:queue ~dummy:dummy_result ());
        stop = Atomic.make false;
        failure = Atomic.make None;
        events = Atomic.make 0;
        parked = Atomic.make false;
        driver_wakeups = 0;
        lock = Mutex.create ();
        cond = Condition.create ();
        handles = [||];
        shut = false;
      }
    in
    t.handles <-
      Array.init domains (fun w ->
          Domain.spawn (fun () ->
              worker_loop t ~exec ~dummy_job ~dummy_result w));
    t

  let domains t = t.domains
  let queue_capacity t = Spsc_queue.capacity t.jobs.(0)

  (* Every driver operation passes through here.  After [shutdown] the
     workers are joined, so a pushed job would never run and a [wait]
     would park forever: refuse up front instead. *)
  let check t =
    if t.shut then invalid_arg "Runtime.Stage_pool: used after shutdown";
    match Atomic.get t.failure with
    | None -> ()
    | Some e ->
        (* Make sure every worker is unwinding before we propagate. *)
        Atomic.set t.stop true;
        Array.iter Spsc_queue.wake t.jobs;
        raise e

  let submit_batch t ~worker buf ~len =
    check t;
    Spsc_queue.push_batch t.jobs.(worker) buf ~len

  let result_batch t ~worker buf ~max =
    check t;
    Spsc_queue.pop_batch t.results.(worker) buf ~max

  (* Worker-side parks woken by a job push, plus driver parks woken by a
     result doorbell — the total count of condvar round-trips the
     handoff actually paid for.  Batching exists to shrink this. *)
  let doorbell_wakeups t =
    Array.fold_left
      (fun acc q -> acc + Spsc_queue.wakeups q)
      t.driver_wakeups t.jobs

  let events t = Atomic.get t.events

  let wait t ~seen =
    check t;
    if Atomic.get t.events = seen then begin
      Mutex.lock t.lock;
      Atomic.set t.parked true;
      let slept = ref false in
      while
        Atomic.get t.events = seen
        && (match Atomic.get t.failure with None -> true | Some _ -> false)
      do
        slept := true;
        Condition.wait t.cond t.lock
      done;
      if !slept then t.driver_wakeups <- t.driver_wakeups + 1;
      Atomic.set t.parked false;
      Mutex.unlock t.lock;
      check t
    end

  let shutdown t =
    if not t.shut then begin
      t.shut <- true;
      Atomic.set t.stop true;
      Array.iter Spsc_queue.wake t.jobs;
      Array.iter Domain.join t.handles;
      t.handles <- [||];
      match Atomic.get t.failure with None -> () | Some e -> raise e
    end
end
