(* The benchmark's own checks: nearest-rank percentiles and the
   determinism its output check relies on. *)

module Bench = Hyder_benchmark.Bench
module Sample = Hyder_util.Stats.Sample

let percentile_golden () =
  let s = Sample.create () in
  List.iter (Sample.add s) [ 50.0; 15.0; 40.0; 20.0; 35.0 ];
  List.iter
    (fun (p, v) ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "p%g" p) v
        (Sample.percentile s p))
    [ (0.0, 15.0); (5.0, 15.0); (30.0, 20.0); (40.0, 20.0); (50.0, 35.0);
      (99.0, 50.0); (100.0, 50.0) ];
  let s = Sample.create () in
  for i = 1 to 1000 do
    Sample.add s (float_of_int (1001 - i))
  done;
  Alcotest.(check (float 0.0)) "p50 of 1..1000" 500.0 (Sample.percentile s 50.0);
  Alcotest.(check (float 0.0)) "p99 of 1..1000" 990.0 (Sample.percentile s 99.0)

(* The slice statistics' quantile, on the same nearest-rank rule. *)
let quantile_golden () =
  let xs = [ 5.0; 1.0; 8.0; 3.0; 7.0; 2.0; 6.0; 4.0 ] in
  List.iter
    (fun (q, v) ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "q%g" q) v (Bench.quantile q xs))
    [ (0.0, 1.0); (0.25, 2.0); (0.5, 4.0); (0.75, 6.0); (0.9, 8.0); (1.0, 8.0) ]

(* About 2k decided transactions on a 20k-key version of each workload. *)
let rounds = 36
let small name = Bench.with_keys (Option.get (Bench.find name)) 20_000
let digests name ~seed = Bench.digests (small name) ~seed ~rounds
let pair = Alcotest.(pair string string)

let same_seed_same_digests () =
  let a = digests "sr-opt-1m" ~seed:7 and b = digests "sr-opt-1m" ~seed:7 in
  Alcotest.check pair "repeat" a b

let seq_equals_pipe () =
  Alcotest.check pair "seq vs pipe:1"
    (digests "sr-opt-1m" ~seed:11)
    (digests "sr-opt-1m-pipe" ~seed:11)

let seed_changes_digests () =
  let d1, t1 = digests "sr-opt-1m" ~seed:1 and d2, t2 = digests "sr-opt-1m" ~seed:2 in
  Alcotest.(check bool) "decisions differ" true (d1 <> d2);
  Alcotest.(check bool) "trees differ" true (t1 <> t2)

(* [Bench.digests] raises if any decision fails the output check (the
   OCC oracle on si-plain, conflict-zone safety everywhere). *)
let every_workload_checks () =
  List.iter
    (fun (w : Bench.workload) ->
      ignore (Bench.digests (Bench.with_keys w 20_000) ~seed:3 ~rounds))
    Bench.workloads

let () =
  Alcotest.run "benchmark"
    [
      ( "percentile",
        [
          Alcotest.test_case "nearest rank" `Quick percentile_golden;
          Alcotest.test_case "slice quantile" `Quick quantile_golden;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed" `Quick same_seed_same_digests;
          Alcotest.test_case "seq = pipe:1" `Quick seq_equals_pipe;
          Alcotest.test_case "other seed" `Quick seed_changes_digests;
          Alcotest.test_case "output check" `Quick every_workload_checks;
        ] );
    ]
