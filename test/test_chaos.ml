(* Chaos suite: seeded fault schedules, gap repair and crash recovery.

   The acceptance property: under any deterministic fault schedule —
   dropped/duplicated/delayed broadcasts, storage stalls, transient read
   failures, server crashes — every replica, including one restarted from
   a checkpoint, converges to trees, ephemeral ids and counters
   bit-identical to a fault-free run's, with replay bounded by the suffix
   after the last checkpoint. *)

module Faults = Hyder_sim.Faults
module Replica = Hyder_cluster.Replica
module Metrics = Hyder_obs.Metrics

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* {1 Fault schedule: purity and parsing} *)

let test_faults_pure () =
  let f =
    Faults.create ~drop:0.3 ~dup:0.2 ~delay_p:0.1 ~delay:1e-3 ~seed:42 ()
  in
  (* same event, same answer — however many times and in whatever order *)
  let probe () =
    List.map
      (fun msg -> Faults.delivery f ~from:(msg mod 3) ~receiver:1 ~msg)
      [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
  in
  let a = probe () in
  let _mixed = Faults.delivery f ~from:9 ~receiver:9 ~msg:999 in
  let b = List.rev_map (fun x -> x) (List.rev (probe ())) in
  check_bool "delivery fates replay identically" true (a = b);
  let g = Faults.create ~drop:0.3 ~seed:43 () in
  check_bool "different seeds give different schedules" true
    (List.exists2
       (fun x y -> x <> y)
       (List.init 200 (fun m -> Faults.delivery f ~from:0 ~receiver:1 ~msg:m))
       (List.init 200 (fun m -> Faults.delivery g ~from:0 ~receiver:1 ~msg:m)))

let test_faults_extremes () =
  let all = Faults.create ~drop:1.0 ~seed:7 () in
  for m = 0 to 50 do
    check_bool "drop=1 drops everything" true
      (Faults.delivery all ~from:0 ~receiver:1 ~msg:m = Faults.Drop)
  done;
  let none = Faults.create ~seed:7 () in
  for m = 0 to 50 do
    check_bool "no-fault schedule delivers" true
      (Faults.delivery none ~from:0 ~receiver:1 ~msg:m = Faults.Deliver)
  done;
  check_bool "none is none" true (Faults.is_none Faults.none);
  (* read failures are per-attempt independent draws: attempt numbers
     must matter, so retries terminate *)
  let rf = Faults.create ~read_fail:0.5 ~seed:11 () in
  check_bool "read failure draws vary by attempt" true
    (let draws =
       List.init 64 (fun a -> Faults.read_fails rf ~pos:3 ~attempt:a)
     in
     List.mem true draws && List.mem false draws)

let test_faults_spec_roundtrip () =
  let spec = "7:drop=0.02,dup=0.01@0.002,delay=0.05@0.001,stall=0.01@0.002,readfail=0.1,crash=1@0.05+0.03,crash=2@0.01+0.005" in
  (match Faults.of_string spec with
  | Error e -> Alcotest.failf "spec rejected: %s" e
  | Ok f -> (
      check_int "seed parsed" 7 (Faults.seed f);
      check_int "both crashes parsed" 2 (List.length (Faults.crashes f));
      match Faults.of_string (Faults.to_string f) with
      | Error e -> Alcotest.failf "round-trip rejected: %s" e
      | Ok f' ->
          check_string "round-trips" (Faults.to_string f) (Faults.to_string f');
          check_bool "round-tripped schedule behaves identically" true
            (List.init 100 (fun m -> Faults.delivery f ~from:0 ~receiver:2 ~msg:m)
            = List.init 100 (fun m ->
                  Faults.delivery f' ~from:0 ~receiver:2 ~msg:m))));
  List.iter
    (fun bad ->
      check_bool
        (Printf.sprintf "rejects %S" bad)
        true
        (Result.is_error (Faults.of_string bad)))
    [ ""; "x:drop=0.1"; "3:drop=1.5"; "3:bogus=1"; "3:crash=1@x+y" ]

(* {1 The cluster harness} *)

let base_config =
  { Replica.default_config with Replica.txns = 400; servers = 3 }

let test_fault_free_converges () =
  let r = Replica.run base_config in
  check_bool "fault-free run converges" true r.Replica.converged;
  check_int "all positions logged" base_config.Replica.txns
    r.Replica.log_length;
  List.iter
    (fun (rep : Replica.replica_report) ->
      check_int "no crashes" 0 rep.Replica.crashes;
      check_int "nothing replayed" 0 rep.Replica.replayed;
      check_bool "checkpoints captured" true (rep.Replica.checkpoints > 0);
      check_string "tree matches baseline" r.Replica.baseline_tree_digest
        rep.Replica.tree_digest;
      check_string "counters match baseline"
        r.Replica.baseline_counters_digest rep.Replica.counters_digest)
    r.Replica.replicas

(* The acceptance scenario from ISSUE.md: drops, duplicates, delays, a
   storage stall, transient read failures, and two crashes — one restarting
   from a checkpoint, one from scratch (it dies before its first
   checkpoint). *)
let chaos_spec =
  "1234:drop=0.02,dup=0.02@0.0004,delay=0.05@0.0008,stall=0.05@0.0005,readfail=0.2,crash=1@0.0075+0.002,crash=2@0.0005+0.001"

let chaos_faults () =
  match Faults.of_string chaos_spec with
  | Ok f -> f
  | Error e -> Alcotest.failf "chaos spec rejected: %s" e

let chaos_config ?metrics () =
  { base_config with Replica.faults = chaos_faults (); metrics }

let test_chaos_converges () =
  let m = Metrics.create () in
  let r = Replica.run (chaos_config ~metrics:m ()) in
  check_bool "chaos run converges bit-identically" true r.Replica.converged;
  check_bool "faults actually fired: drops" true (r.Replica.dropped > 0);
  check_bool "faults actually fired: duplicates" true (r.Replica.duplicated > 0);
  check_bool "faults actually fired: stalls" true (r.Replica.stalls > 0);
  check_bool "transient read failures retried" true (r.Replica.read_retries > 0);
  let rep i = List.nth r.Replica.replicas i in
  check_int "server 1 crashed once" 1 (rep 1).Replica.crashes;
  check_int "server 2 crashed once" 1 (rep 2).Replica.crashes;
  check_bool "server 1 restarted from a checkpoint" true
    ((rep 1).Replica.restarted_from_pos >= 0);
  check_int "server 2 crashed before its first checkpoint" (-1)
    (rep 2).Replica.restarted_from_pos;
  List.iter
    (fun (x : Replica.replica_report) ->
      check_int "no decision mismatches" 0 x.Replica.decision_mismatches;
      check_int "fully melded" r.Replica.log_length x.Replica.melded;
      if x.Replica.crashes > 0 then begin
        check_bool "crashed replica replayed a suffix" true
          (x.Replica.replayed > 0);
        (* checkpoint-bounded replay: only the log suffix after the
           checkpoint the restart resumed from is ever re-melded *)
        check_bool
          (Printf.sprintf "replay %d bounded by suffix after checkpoint %d"
             x.Replica.replayed x.Replica.restarted_from_pos)
          true
          (x.Replica.replayed
          <= r.Replica.log_length - 1 - x.Replica.restarted_from_pos);
        check_bool "caught-up time recorded" true (x.Replica.caught_up_in > 0.0)
      end)
    r.Replica.replicas;
  check_bool "some gap was repaired from the log" true
    (List.exists
       (fun (x : Replica.replica_report) -> x.Replica.repair_reads > 0)
       r.Replica.replicas);
  check_bool "some duplicate was ignored" true
    (List.exists
       (fun (x : Replica.replica_report) -> x.Replica.duplicates_ignored > 0)
       r.Replica.replicas);
  (* recovery observability *)
  let counter name = Metrics.Counter.value (Metrics.counter m name) in
  check_bool "repair reads exported" true (counter "recovery_repair_reads" > 0);
  check_int "crashes exported" 2 (counter "recovery_crashes");
  check_bool "drops exported" true (counter "broadcast_messages_dropped" > 0);
  check_int "replay histogram has one entry per crashed replica" 2
    (Metrics.Histogram.count (Metrics.histogram m "recovery_replay_length"))

let digests (r : Replica.result) =
  ( r.Replica.baseline_tree_digest,
    r.Replica.baseline_counters_digest,
    List.map
      (fun (x : Replica.replica_report) ->
        (x.Replica.tree_digest, x.Replica.counters_digest, x.Replica.commits,
         x.Replica.aborts, x.Replica.replayed, x.Replica.repair_reads,
         x.Replica.duplicates_ignored, x.Replica.checkpoints))
      r.Replica.replicas )

let test_chaos_deterministic () =
  let a = Replica.run (chaos_config ()) in
  let b = Replica.run (chaos_config ()) in
  check_bool "identical digests and recovery stats across runs" true
    (digests a = digests b);
  check_bool "identical sim clock" true
    (a.Replica.sim_seconds = b.Replica.sim_seconds)

let () =
  Alcotest.run "chaos"
    [
      ( "faults",
        [
          Alcotest.test_case "pure function of seed and event" `Quick
            test_faults_pure;
          Alcotest.test_case "extreme probabilities" `Quick
            test_faults_extremes;
          Alcotest.test_case "spec parse round-trip" `Quick
            test_faults_spec_roundtrip;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "fault-free cluster converges" `Quick
            test_fault_free_converges;
          Alcotest.test_case "chaos schedule converges bit-identically" `Quick
            test_chaos_converges;
          Alcotest.test_case "chaos run is deterministic" `Quick
            test_chaos_deterministic;
        ] );
    ]
