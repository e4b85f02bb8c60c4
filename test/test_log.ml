module Mem_log = Hyder_log.Mem_log
module Corfu = Hyder_log.Corfu
module Broadcast = Hyder_log.Broadcast
module Engine = Hyder_sim.Engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_mem_log_basics () =
  let l = Mem_log.create ~block_size:16 () in
  let p0 = Mem_log.append l "hello" in
  let p1 = Mem_log.append l "world" in
  check_int "dense positions" 0 p0;
  check_int "dense positions" 1 p1;
  Alcotest.(check string) "read back" "hello" (Mem_log.read l 0);
  Alcotest.(check string) "read back" "world" (Mem_log.read l 1);
  check_int "length" 2 (Mem_log.length l);
  check_int "bytes" 10 (Mem_log.bytes_appended l)

let test_mem_log_rejects_oversized () =
  let l = Mem_log.create ~block_size:4 () in
  Alcotest.check_raises "oversized"
    (Invalid_argument
       "Mem_log.append: block of 5 bytes exceeds page size 4") (fun () ->
      ignore (Mem_log.append l "hello"))

let test_mem_log_read_bounds () =
  let l = Mem_log.create () in
  ignore (Mem_log.append l "x");
  Alcotest.check_raises "negative"
    (Invalid_argument "Mem_log.read: position -1 out of range") (fun () ->
      ignore (Mem_log.read l (-1)));
  Alcotest.check_raises "past end"
    (Invalid_argument "Mem_log.read: position 1 out of range") (fun () ->
      ignore (Mem_log.read l 1))

let test_mem_log_iter () =
  let l = Mem_log.create () in
  for i = 0 to 9 do
    ignore (Mem_log.append l (string_of_int i))
  done;
  let seen = ref [] in
  Mem_log.iter l ~from:5 (fun pos b -> seen := (pos, b) :: !seen);
  check_int "five blocks" 5 (List.length !seen);
  check "positions" true
    (List.rev !seen = List.init 5 (fun i -> (i + 5, string_of_int (i + 5))))

let test_mem_log_grows () =
  let l = Mem_log.create () in
  for i = 0 to 5000 do
    ignore (Mem_log.append l (string_of_int i))
  done;
  Alcotest.(check string) "growth preserved" "3000" (Mem_log.read l 3000)

(* --- corfu -------------------------------------------------------------- *)

let test_corfu_append_read () =
  let e = Engine.create () in
  let c = Corfu.create e in
  let results = ref [] in
  for i = 0 to 9 do
    Corfu.append c (Printf.sprintf "block%d" i) (fun pos ->
        results := (i, pos) :: !results)
  done;
  Engine.run e;
  check_int "all appended" 10 (List.length !results);
  check_int "positions dense" 10 (Corfu.length c);
  (* Sequencer order = request order: block i gets position i. *)
  List.iter (fun (i, pos) -> check_int "fifo positions" i pos) !results;
  let got = ref None in
  Corfu.read c 5 (fun b -> got := Some b);
  Engine.run e;
  Alcotest.(check (option string)) "read back" (Some "block5") !got

let test_corfu_latency_increases_under_load () =
  let measure clients =
    let e = Engine.create () in
    let c = Corfu.create e in
    let lat = Hyder_util.Stats.Sample.create () in
    (* closed loop: each client keeps one append in flight *)
    let rec loop remaining () =
      if remaining > 0 then begin
        let t0 = Engine.now e in
        Corfu.append c (String.make 512 'x') (fun _ ->
            Hyder_util.Stats.Sample.add lat (Engine.now e -. t0);
            loop (remaining - 1) ())
      end
    in
    for _ = 1 to clients do
      loop 200 ()
    done;
    Engine.run e;
    Hyder_util.Stats.Sample.mean lat
  in
  let light = measure 1 in
  let heavy = measure 512 in
  check
    (Printf.sprintf "queueing raises latency (%.6f vs %.6f)" light heavy)
    true (heavy > light *. 2.0)

let test_corfu_throughput_bounded_by_sequencer () =
  let e = Engine.create () in
  let config = Corfu.default_config in
  let c = Corfu.create ~config e in
  let n = 20_000 in
  let completed = ref 0 in
  let rec loop remaining () =
    if remaining > 0 then
      Corfu.append c "b" (fun _ ->
          incr completed;
          loop (remaining - 1) ())
  in
  (* 400 concurrent closed-loop appenders saturate the service. *)
  for _ = 1 to 400 do
    loop (n / 400) ()
  done;
  Engine.run e;
  let rate = float_of_int !completed /. Engine.now e in
  let sequencer_cap = 1.0 /. config.Corfu.sequencer_time in
  check
    (Printf.sprintf "rate %.0f <= sequencer cap %.0f" rate sequencer_cap)
    true (rate <= sequencer_cap +. 1.0);
  check "saturates near a bottleneck" true (rate > sequencer_cap *. 0.5)

(* --- broadcast ---------------------------------------------------------- *)

let test_broadcast_reaches_all () =
  let e = Engine.create () in
  let b = Broadcast.create e ~senders:3 ~receivers:3 in
  let got = Array.make 3 0 in
  Broadcast.send b ~from:1 ~size:1000 (fun ~receiver ->
      got.(receiver) <- got.(receiver) + 1);
  Engine.run e;
  Alcotest.(check (array int)) "one delivery each" [| 1; 1; 1 |] got;
  (* the sender's own delivery does not cross the network *)
  check_int "remote messages only" 2 (Broadcast.messages_sent b)

let test_broadcast_local_immediate () =
  let e = Engine.create () in
  let b = Broadcast.create e ~senders:2 ~receivers:2 in
  let local = ref false in
  Broadcast.send b ~from:0 ~size:10 (fun ~receiver ->
      if receiver = 0 then begin
        local := true;
        Alcotest.(check (float 1e-12)) "no delay locally" 0.0 (Engine.now e)
      end);
  (* scheduled through the event loop, not invoked synchronously: a
     delivery handler that reenters the broadcast must not run inside
     the sender's call stack *)
  check "local delivery waits for the event loop" false !local;
  Engine.run e;
  check "local delivered at zero simulated delay" true !local

let test_broadcast_faults () =
  let faults =
    match Hyder_sim.Faults.of_string "5:drop=0.3,dup=0.2@0.001" with
    | Ok f -> f
    | Error e -> Alcotest.fail e
  in
  let e = Engine.create () in
  let b = Broadcast.create ~faults e ~senders:2 ~receivers:2 in
  let local = ref 0 and remote = ref 0 in
  let n = 200 in
  for _ = 1 to n do
    Broadcast.send b ~from:0 ~size:100 (fun ~receiver ->
        if receiver = 0 then incr local else incr remote)
  done;
  Engine.run e;
  check_int "local deliveries are exempt from faults" n !local;
  check "drops happened" true (Broadcast.messages_dropped b > 0);
  check "duplicates happened" true (Broadcast.messages_duplicated b > 0);
  check_int "every remote delivery accounted for"
    (Broadcast.messages_sent b + Broadcast.messages_duplicated b)
    !remote;
  check_int "sent + dropped = attempts" n
    (Broadcast.messages_sent b + Broadcast.messages_dropped b)

let test_corfu_faulty_reads_retry () =
  let faults =
    match Hyder_sim.Faults.of_string "9:readfail=0.5,stall=0.2@0.002" with
    | Ok f -> f
    | Error e -> Alcotest.fail e
  in
  let e = Engine.create () in
  let c = Corfu.create ~faults e in
  let blocks = List.init 50 (fun i -> Printf.sprintf "block-%d" i) in
  List.iter (fun b -> Corfu.append c b (fun _ -> ())) blocks;
  Engine.run e;
  let got = ref 0 in
  List.iteri
    (fun i expect ->
      Corfu.read c i (fun b ->
          Alcotest.(check string) "read returns the appended block" expect b;
          incr got))
    blocks;
  Engine.run e;
  check_int "every read eventually completes" 50 !got;
  check "transient failures were retried" true (Corfu.read_retries c > 0);
  check "stalls were injected" true (Corfu.stalls_injected c > 0)

let test_broadcast_in_order_per_sender () =
  let e = Engine.create () in
  let b = Broadcast.create e ~senders:2 ~receivers:2 in
  let seen = ref [] in
  for i = 0 to 9 do
    Broadcast.send b ~from:0 ~size:5000 (fun ~receiver ->
        if receiver = 1 then seen := i :: !seen)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "TCP-like ordering"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !seen)

let () =
  Alcotest.run "log"
    [
      ( "mem_log",
        [
          Alcotest.test_case "basics" `Quick test_mem_log_basics;
          Alcotest.test_case "oversized" `Quick test_mem_log_rejects_oversized;
          Alcotest.test_case "read bounds" `Quick test_mem_log_read_bounds;
          Alcotest.test_case "iter" `Quick test_mem_log_iter;
          Alcotest.test_case "grows" `Quick test_mem_log_grows;
        ] );
      ( "corfu",
        [
          Alcotest.test_case "append/read" `Quick test_corfu_append_read;
          Alcotest.test_case "latency under load" `Quick
            test_corfu_latency_increases_under_load;
          Alcotest.test_case "sequencer bound" `Quick
            test_corfu_throughput_bounded_by_sequencer;
          Alcotest.test_case "faulty reads retry" `Quick
            test_corfu_faulty_reads_retry;
        ] );
      ( "broadcast",
        [
          Alcotest.test_case "reaches all" `Quick test_broadcast_reaches_all;
          Alcotest.test_case "local immediate" `Quick
            test_broadcast_local_immediate;
          Alcotest.test_case "per-sender order" `Quick
            test_broadcast_in_order_per_sender;
          Alcotest.test_case "seeded faults" `Quick test_broadcast_faults;
        ] );
    ]
