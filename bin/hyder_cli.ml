(* Command-line driver: run individual Hyder II experiments.

   Examples:
     hyder-cli cluster --servers 6 --pipeline premeld --duration 0.5
     hyder-cli local --zone-cap 256 --records 100000
     hyder-cli log --clients 6 --threads 20 --seconds 2
     hyder-cli tango --records 100000 --txns 50000
*)

open Cmdliner
module Cluster = Hyder_cluster.Cluster
module Replica = Hyder_cluster.Replica
module Faults = Hyder_sim.Faults
module Ycsb = Hyder_workload.Ycsb
module Pipeline = Hyder_core.Pipeline
module Metrics = Hyder_obs.Metrics
module Flight = Hyder_obs.Flight
module Analyze = Hyder_obs.Analyze
module Json = Hyder_obs.Json

let write_file path content =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content)

(* Open the flight-record sink around [f], closing it whatever happens;
   [f] receives [None] when no --flight file was asked for. *)
let with_flight_sink flight_file f =
  match flight_file with
  | None -> f None
  | Some path ->
      let oc = open_out path in
      let r =
        Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f (Some oc))
      in
      Printf.eprintf "flight records -> %s\n%!" path;
      r

let pipeline_to_string (c : Pipeline.config) =
  match (c.Pipeline.premeld, c.Pipeline.group_size) with
  | None, 1 -> "plain"
  | Some _, 1 -> "premeld"
  | None, _ -> "group"
  | Some _, _ -> "both"

let pipeline_conv =
  let parse = function
    | "plain" -> Ok Pipeline.plain
    | "premeld" | "pre" -> Ok Pipeline.with_premeld
    | "group" | "grp" -> Ok Pipeline.with_group_meld
    | "both" | "opt" -> Ok Pipeline.with_both
    | s -> Error (`Msg (Printf.sprintf "unknown pipeline %S" s))
  in
  let print fmt c = Format.fprintf fmt "%s" (pipeline_to_string c) in
  Arg.conv (parse, print)

let isolation_conv =
  let open Hyder_codec.Intention in
  let parse = function
    | "sr" | "serializable" -> Ok Serializable
    | "si" | "snapshot" -> Ok Snapshot_isolation
    | "rc" | "read-committed" -> Ok Read_committed
    | s -> Error (`Msg (Printf.sprintf "unknown isolation %S" s))
  in
  Arg.conv (parse, fun fmt i -> Format.fprintf fmt "%s" (isolation_to_string i))

let faults_conv =
  let parse s =
    match Faults.of_string s with Ok f -> Ok f | Error m -> Error (`Msg m)
  in
  Arg.conv (parse, fun fmt f -> Format.fprintf fmt "%s" (Faults.to_string f))

let dist_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "uniform" ] -> Ok Ycsb.Uniform
    | [ "zipfian" ] -> Ok (Ycsb.Zipfian 0.99)
    | [ "zipfian"; t ] -> Ok (Ycsb.Zipfian (float_of_string t))
    | [ "hotspot"; x ] -> Ok (Ycsb.Hotspot (float_of_string x))
    | [ "latest" ] -> Ok Ycsb.Latest
    | _ -> Error (`Msg (Printf.sprintf "unknown distribution %S" s))
  in
  Arg.conv (parse, fun fmt _ -> Format.fprintf fmt "<dist>")

(* shared workload flags *)
let records =
  Arg.(value & opt int 200_000 & info [ "records" ] ~doc:"Database size in items.")

let payload =
  Arg.(value & opt int 128 & info [ "payload" ] ~doc:"Payload bytes per item.")

let ops = Arg.(value & opt int 10 & info [ "ops" ] ~doc:"Operations per transaction.")

let updates =
  Arg.(
    value & opt float 0.2
    & info [ "updates" ] ~doc:"Fraction of a transaction's ops that write.")

let isolation =
  Arg.(
    value
    & opt isolation_conv Hyder_codec.Intention.Serializable
    & info [ "isolation" ] ~doc:"sr | si | rc")

let dist =
  Arg.(
    value & opt dist_conv Ycsb.Uniform
    & info [ "dist" ] ~doc:"uniform | zipfian[:theta] | hotspot:x | latest")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let workload_term =
  let make records payload ops updates isolation dist =
    {
      Ycsb.default with
      Ycsb.record_count = records;
      payload_size = payload;
      ops_per_txn = ops;
      update_fraction = updates;
      isolation;
      distribution = dist;
    }
  in
  Term.(const make $ records $ payload $ ops $ updates $ isolation $ dist)

(* --- cluster ------------------------------------------------------------ *)

let cluster_cmd =
  let run_chaos servers pipeline workload seed faults checkpoint_every
      chaos_txns flight_file metrics_file json_file =
    let metrics =
      if metrics_file <> None || json_file <> None then Some (Metrics.create ())
      else None
    in
    let r =
      with_flight_sink flight_file (fun flight_sink ->
          let cfg =
            {
              Replica.default_config with
              Replica.servers;
              pipeline;
              workload;
              faults;
              checkpoint_every;
              txns = chaos_txns;
              seed = Int64.of_int seed;
              metrics;
              flight_sink;
            }
          in
          Replica.run cfg)
    in
    Format.printf "%a@." Replica.pp r;
    (match metrics_file with
    | None -> ()
    | Some path ->
        let m = Option.get metrics in
        write_file path (Metrics.to_prometheus (Metrics.snapshot m));
        Printf.eprintf "metrics -> %s\n%!" path);
    (match json_file with
    | None -> ()
    | Some path ->
        let report =
          Json.Obj
            ([
               ("experiment", Json.String "cluster-chaos");
               ( "config",
                 Json.Obj
                   [
                     ("servers", Json.Int servers);
                     ("pipeline", Json.String (pipeline_to_string pipeline));
                     ("txns", Json.Int chaos_txns);
                     ("checkpoint_every", Json.Int checkpoint_every);
                     ("faults", Json.String (Faults.to_string faults));
                     ("seed", Json.Int seed);
                   ] );
               ("result", Replica.result_to_json r);
             ]
            @
            match metrics with
            | Some m -> [ ("metrics", Metrics.to_json (Metrics.snapshot m)) ]
            | None -> [])
        in
        write_file path (Json.to_string report);
        Printf.eprintf "run report -> %s\n%!" path);
    if not r.Replica.converged then exit 1
  in
  let run servers pipeline write_threads read_threads inflight duration warmup
      workload seed faults checkpoint_every chaos_txns flight_file
      metrics_file json_file =
    match faults with
    | Some faults ->
        (* Chaos mode: fault injection + crash recovery instead of the
           closed-loop throughput experiment. *)
        run_chaos servers pipeline workload seed faults checkpoint_every
          chaos_txns flight_file metrics_file json_file
    | None ->
    with_flight_sink flight_file @@ fun flight_sink ->
    let metrics =
      if metrics_file <> None || json_file <> None then Some (Metrics.create ())
      else None
    in
    let flight =
      match flight_sink with
      | None -> Flight.disabled
      | Some oc ->
          Flight.create ~label:"seq" ?metrics ~sink:oc ()
    in
    let cfg =
      {
        Cluster.default_config with
        Cluster.servers;
        pipeline;
        write_threads;
        read_threads;
        inflight_per_thread = inflight;
        duration;
        warmup;
        workload;
        seed = Int64.of_int seed;
        flight;
        metrics;
      }
    in
    let r = Cluster.run cfg in
    Format.printf "%a@." Cluster.pp_result r;
    (match metrics_file with
    | None -> ()
    | Some path ->
        let m = Option.get metrics in
        write_file path (Metrics.to_prometheus (Metrics.snapshot m));
        Printf.eprintf "metrics -> %s\n%!" path);
    match json_file with
    | None -> ()
    | Some path ->
        let report =
          Json.Obj
            ([
               ("experiment", Json.String "cluster");
               ( "config",
                 Json.Obj
                   [
                     ("servers", Json.Int servers);
                     ("pipeline", Json.String (pipeline_to_string pipeline));
                     ("write_threads", Json.Int write_threads);
                     ("read_threads", Json.Int read_threads);
                     ("inflight_per_thread", Json.Int inflight);
                     ("duration", Json.Float duration);
                     ("warmup", Json.Float warmup);
                     ("seed", Json.Int seed);
                   ] );
               ("result", Cluster.result_to_json r);
             ]
            @
            match metrics with
            | Some m -> [ ("metrics", Metrics.to_json (Metrics.snapshot m)) ]
            | None -> [])
        in
        write_file path (Json.to_string report);
        Printf.eprintf "run report -> %s\n%!" path
  in
  let servers =
    Arg.(value & opt int 6 & info [ "servers" ] ~doc:"Transaction servers.")
  in
  let pipeline =
    Arg.(
      value & opt pipeline_conv Pipeline.plain
      & info [ "pipeline" ] ~doc:"plain | premeld | group | both")
  in
  let write_threads =
    Arg.(value & opt int 20 & info [ "write-threads" ] ~doc:"Update threads/server.")
  in
  let read_threads =
    Arg.(value & opt int 0 & info [ "read-threads" ] ~doc:"Read-only executors/server.")
  in
  let inflight =
    Arg.(value & opt int 80 & info [ "inflight" ] ~doc:"In-flight txns per thread.")
  in
  let duration =
    Arg.(value & opt float 0.4 & info [ "duration" ] ~doc:"Measured simulated seconds.")
  in
  let warmup =
    Arg.(value & opt float 0.15 & info [ "warmup" ] ~doc:"Warmup simulated seconds.")
  in
  let faults =
    Arg.(
      value
      & opt (some faults_conv) None
      & info [ "faults" ] ~docv:"SEED:SPEC"
          ~doc:
            "Run the chaos/recovery harness instead of the throughput \
             experiment, under the given deterministic fault schedule. \
             $(docv) is e.g. \
             1234:drop=0.02,dup=0.01@0.0004,delay=0.05@0.0008,stall=0.05@0.0005,readfail=0.2,crash=1@0.0075+0.002 \
             — per-message drop/duplicate/delay probabilities, storage \
             stalls, transient read failures and server crash/restart \
             times. The run replays a fixed workload through the cluster \
             and checks every server (including crashed-and-restarted \
             ones) converges bit-identically to a fault-free baseline; \
             exits non-zero otherwise. Ignores the closed-loop flags \
             (threads, inflight, duration, warmup).")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 64
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Chaos mode: capture a durable checkpoint after melding every \
             $(docv) log positions; restarted servers replay only the log \
             suffix after their last checkpoint. Must be a multiple of the \
             pipeline's group size.")
  in
  let chaos_txns =
    Arg.(
      value & opt int 600
      & info [ "chaos-txns" ] ~docv:"N"
          ~doc:"Chaos mode: transactions appended to the log.")
  in
  let flight_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight" ] ~docv:"FILE"
          ~doc:
            "Record every transaction's flight (per-stage queue-wait and \
             service times from decode to commit/abort) and stream one \
             JSON line per completed record to $(docv); feed it to \
             $(b,hyder-cli analyze), whose $(b,--chrome) turns it into a \
             Perfetto timeline. Works in both the throughput and the chaos \
             experiment; off (zero-cost) when absent.")
  in
  let metrics_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Write Prometheus text-format metrics to $(docv).")
  in
  let json_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write a machine-readable JSON run report (config, result, \
             metrics) to $(docv).")
  in
  Cmd.v
    (Cmd.info "cluster" ~doc:"Run a distributed Hyder II experiment")
    Term.(
      const run $ servers $ pipeline $ write_threads $ read_threads
      $ inflight $ duration $ warmup $ workload_term $ seed $ faults
      $ checkpoint_every $ chaos_txns $ flight_file $ metrics_file
      $ json_file)

(* --- analyze -------------------------------------------------------------- *)

let analyze_cmd =
  let run file top_k json_file chrome_file =
    match Analyze.load_file file with
    | [] ->
        Printf.eprintf "analyze: no flight records in %s\n%!" file;
        exit 1
    | txns -> (
        Analyze.print_report ~top_k txns;
        (match json_file with
        | None -> ()
        | Some path ->
            write_file path (Json.to_string (Analyze.report ~top_k txns));
            Printf.eprintf "analysis report -> %s\n%!" path);
        match chrome_file with
        | None -> ()
        | Some path ->
            write_file path (Json.to_string (Analyze.to_chrome txns));
            Printf.eprintf "chrome trace -> %s\n%!" path)
  in
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FLIGHT.jsonl"
          ~doc:"Flight-record dump written by --flight.")
  in
  let top_k =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"K"
          ~doc:"Slowest transactions to drill into per backend.")
  in
  let json_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the machine-readable analysis report to $(docv).")
  in
  let chrome_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Write the records as a Chrome trace-event JSON to $(docv) (load \
             it in Perfetto or chrome://tracing): one process per flight \
             label, one async track per transaction showing each stage's \
             queue wait and service.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Analyze a flight-record dump: per-stage wait/service waterfall, \
          critical-path decomposition, abort-reason x stage attribution and \
          slowest-transaction drill-down, per backend label")
    Term.(const run $ file $ top_k $ json_file $ chrome_file)

(* --- local ([8] setup) ---------------------------------------------------- *)

let local_cmd =
  let run zone_cap txns workload seed =
    let r =
      Hyder_baselines.Inmem_hyder.run ~txns ~zone_cap
        ~seed:(Int64.of_int seed) ~workload ()
    in
    Format.printf
      "in-memory meld: %.1f us/txn -> %.0f tps meld-bound; %.1f nodes/txn; \
       abort %.2f%%@."
      r.Hyder_baselines.Inmem_hyder.meld_us
      r.Hyder_baselines.Inmem_hyder.meld_bound_tps
      r.Hyder_baselines.Inmem_hyder.fm_nodes_per_txn
      (100.0 *. r.Hyder_baselines.Inmem_hyder.abort_rate)
  in
  let zone_cap =
    Arg.(value & opt int 256 & info [ "zone-cap" ] ~doc:"Max conflict zone.")
  in
  let txns = Arg.(value & opt int 20_000 & info [ "txns" ] ~doc:"Transactions.") in
  Cmd.v
    (Cmd.info "local" ~doc:"Single-node in-memory meld experiment ([8] setup)")
    Term.(const run $ zone_cap $ txns $ workload_term $ seed)

(* --- log ------------------------------------------------------------------ *)

let log_cmd =
  let run clients threads seconds block =
    let module Engine = Hyder_sim.Engine in
    let module Corfu = Hyder_log.Corfu in
    let eng = Engine.create () in
    let corfu = Corfu.create eng in
    let payload = String.make (min block 4000) 'x' in
    let rec loop () =
      if Engine.now eng < seconds then
        Corfu.append corfu payload (fun _ -> loop ())
    in
    for _ = 1 to clients * threads do
      loop ()
    done;
    Engine.run ~until:seconds eng;
    let lat = Corfu.append_latencies corfu in
    Format.printf
      "%d clients x %d threads: %.0f appends/s; latency p50=%.2fms p95=%.2fms \
       p99=%.2fms@."
      clients threads
      (float_of_int (Corfu.appends_completed corfu) /. seconds)
      (1000.0 *. Hyder_util.Stats.Sample.percentile lat 50.0)
      (1000.0 *. Hyder_util.Stats.Sample.percentile lat 95.0)
      (1000.0 *. Hyder_util.Stats.Sample.percentile lat 99.0)
  in
  let clients = Arg.(value & opt int 6 & info [ "clients" ] ~doc:"Log clients.") in
  let threads = Arg.(value & opt int 20 & info [ "threads" ] ~doc:"Threads per client.") in
  let seconds = Arg.(value & opt float 2.0 & info [ "seconds" ] ~doc:"Simulated seconds.") in
  let block = Arg.(value & opt int 8192 & info [ "block" ] ~doc:"Block size.") in
  Cmd.v
    (Cmd.info "log" ~doc:"CORFU log service benchmark (Figure 9 style)")
    Term.(const run $ clients $ threads $ seconds $ block)

(* --- tango ---------------------------------------------------------------- *)

let tango_cmd =
  let run records txns ops updates seed =
    let module Tango = Hyder_baselines.Tango in
    let writes_per_txn =
      max 1 (int_of_float (Float.round (updates *. float_of_int ops)))
    in
    let apply_us, abort_rate =
      Tango.run_workload ~seed:(Int64.of_int seed) ~records ~txns
        ~window:2_000 ~reads_per_txn:(ops - writes_per_txn) ~writes_per_txn ()
    in
    Format.printf
      "tango: apply %.2f us/txn -> %.0f tps apply-bound; abort rate %.2f%%@."
      apply_us (1e6 /. apply_us)
      (100.0 *. abort_rate)
  in
  let txns = Arg.(value & opt int 100_000 & info [ "txns" ] ~doc:"Transactions.") in
  Cmd.v
    (Cmd.info "tango" ~doc:"Tango baseline (hash index over a shared log)")
    Term.(const run $ records $ txns $ ops $ updates $ seed)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "hyder-cli" ~version:"1.0.0"
             ~doc:"Hyder II experiment driver")
          [ cluster_cmd; analyze_cmd; local_cmd; log_cmd; tango_cmd ]))
