module Cluster = Hyder_cluster.Cluster
module Ycsb = Hyder_workload.Ycsb
module Pipeline = Hyder_core.Pipeline

let check = Alcotest.(check bool)

let tiny_config ?(pipeline = Pipeline.plain) ?(servers = 2) () =
  {
    Cluster.default_config with
    Cluster.servers;
    write_threads = 4;
    inflight_per_thread = 10;
    pipeline;
    workload =
      { Ycsb.default with Ycsb.record_count = 10_000; payload_size = 32 };
    duration = 0.1;
    warmup = 0.05;
  }

let test_cluster_runs_and_commits () =
  let r = Cluster.run (tiny_config ()) in
  check
    (Printf.sprintf "committed transactions flow (%d)" r.Cluster.commit_count)
    true
    (r.Cluster.commit_count > 100);
  check "write tps positive" true (r.Cluster.write_tps > 0.0);
  check "appends happened" true (r.Cluster.appends_per_sec > 0.0);
  check "abort rate sane" true
    (r.Cluster.abort_rate >= 0.0 && r.Cluster.abort_rate < 1.0);
  check "stages measured" true
    (let ds, _, _, fm = r.Cluster.stage_us in
     ds > 0.0 && fm > 0.0)

let test_cluster_all_pipelines_run () =
  List.iter
    (fun pipeline ->
      let r = Cluster.run (tiny_config ~pipeline ()) in
      check "commits" true (r.Cluster.commit_count > 50))
    [
      Pipeline.plain;
      Pipeline.with_premeld;
      Pipeline.with_group_meld;
      Pipeline.with_both;
    ]

let test_premeld_shrinks_zone_in_cluster () =
  let plain = Cluster.run (tiny_config ~servers:4 ()) in
  let pre =
    Cluster.run (tiny_config ~servers:4 ~pipeline:Pipeline.with_premeld ())
  in
  check
    (Printf.sprintf "zone shrinks (%.0f -> %.0f)"
       plain.Cluster.conflict_zone_intentions
       pre.Cluster.conflict_zone_intentions)
    true
    (pre.Cluster.conflict_zone_intentions
    < plain.Cluster.conflict_zone_intentions /. 2.0);
  check "fm work shrinks" true
    (pre.Cluster.fm_nodes_per_txn < plain.Cluster.fm_nodes_per_txn)

let test_read_threads_add_throughput () =
  let without = Cluster.run (tiny_config ()) in
  let with_reads =
    Cluster.run { (tiny_config ()) with Cluster.read_threads = 4 }
  in
  check "read tps appears" true (with_reads.Cluster.read_tps > 0.0);
  check "no read tps without readers" true (without.Cluster.read_tps = 0.0);
  check "total exceeds writes" true
    (with_reads.Cluster.total_tps > with_reads.Cluster.write_tps)

let test_more_servers_more_offered_load () =
  let one = Cluster.run (tiny_config ~servers:1 ()) in
  let four = Cluster.run (tiny_config ~servers:4 ()) in
  (* With tiny in-flight windows the system is latency-bound, so more
     servers must raise throughput. *)
  check
    (Printf.sprintf "scaling (%.0f -> %.0f)" one.Cluster.write_tps
       four.Cluster.write_tps)
    true
    (four.Cluster.write_tps > one.Cluster.write_tps *. 1.5)

let test_snapshot_isolation_cheaper () =
  let sr = Cluster.run (tiny_config ~servers:4 ()) in
  let si =
    Cluster.run
      {
        (tiny_config ~servers:4 ()) with
        Cluster.workload =
          {
            Ycsb.default with
            Ycsb.record_count = 10_000;
            payload_size = 32;
            isolation = Hyder_codec.Intention.Snapshot_isolation;
          };
      }
  in
  check
    (Printf.sprintf "SI intentions smaller (%.0f vs %.0f bytes)"
       si.Cluster.intention_bytes sr.Cluster.intention_bytes)
    true
    (si.Cluster.intention_bytes < sr.Cluster.intention_bytes /. 2.0);
  check "SI melds fewer nodes" true
    (si.Cluster.fm_nodes_per_txn < sr.Cluster.fm_nodes_per_txn)

(* The abort breakdown is keyed by [Pipeline.reason_slug]: on a
   contended workload every in-window abort lands under exactly one key,
   and the keys' counts sum to the abort count. *)
let test_abort_reasons_match_counters () =
  let r =
    Cluster.run
      {
        (tiny_config ~pipeline:Pipeline.with_both ()) with
        Cluster.workload =
          {
            Ycsb.default with
            Ycsb.record_count = 10_000;
            payload_size = 32;
            distribution = Ycsb.Hotspot 0.01;
          };
      }
  in
  check
    (Printf.sprintf "hotspot aborts (%d)" r.Cluster.abort_count)
    true (r.Cluster.abort_count > 0);
  Alcotest.(check int)
    "reasons sum to abort_count" r.Cluster.abort_count
    (List.fold_left (fun acc (_, n) -> acc + n) 0 r.Cluster.abort_reasons);
  List.iter
    (fun (k, n) ->
      check (k ^ " is a reason slug") true
        (List.mem k
           [ "write_conflict"; "read_conflict"; "phantom_conflict"; "unknown" ]);
      check (Printf.sprintf "%s counts %d > 0" k n) true (n > 0))
    r.Cluster.abort_reasons

(* No clock feeds the simulation: a run is a pure function of its config
   and seed.  The [gc_*] fields read the process's heap, which the first
   run leaves in a different state, so they are left out. *)
let test_run_is_a_function_of_its_seed () =
  let strip (r : Cluster.result) =
    {
      r with
      Cluster.gc_minor_words_per_txn = 0.0;
      gc_promoted_words_per_txn = 0.0;
      gc_major_words_per_txn = 0.0;
    }
  in
  List.iter
    (fun (name, pipeline) ->
      let cfg = { (tiny_config ~pipeline ()) with Cluster.read_threads = 2 } in
      let a = strip (Cluster.run cfg) and b = strip (Cluster.run cfg) in
      check (name ^ ": same seed, same result") true (a = b);
      let c = Cluster.run { cfg with Cluster.seed = 0xD1FFL } in
      check
        (Printf.sprintf "%s: another seed moves commits or aborts (%d/%d vs %d/%d)"
           name a.Cluster.commit_count a.Cluster.abort_count
           c.Cluster.commit_count c.Cluster.abort_count)
        true
        (c.Cluster.commit_count <> a.Cluster.commit_count
        || c.Cluster.abort_count <> a.Cluster.abort_count))
    [
      ("plain", Pipeline.plain);
      ("premeld", Pipeline.with_premeld);
      ("group", Pipeline.with_group_meld);
      ("both", Pipeline.with_both);
    ]

let () =
  Alcotest.run "cluster"
    [
      ( "simulation",
        [
          Alcotest.test_case "runs and commits" `Quick
            test_cluster_runs_and_commits;
          Alcotest.test_case "all pipelines" `Quick
            test_cluster_all_pipelines_run;
          Alcotest.test_case "premeld shrinks zone" `Quick
            test_premeld_shrinks_zone_in_cluster;
          Alcotest.test_case "read threads" `Quick
            test_read_threads_add_throughput;
          Alcotest.test_case "server scaling" `Quick
            test_more_servers_more_offered_load;
          Alcotest.test_case "snapshot isolation" `Quick
            test_snapshot_isolation_cheaper;
          Alcotest.test_case "abort reasons match counters" `Quick
            test_abort_reasons_match_counters;
          Alcotest.test_case "a run is a function of its seed" `Quick
            test_run_is_a_function_of_its_seed;
        ] );
    ]
