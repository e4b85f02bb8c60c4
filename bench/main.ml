(* Benchmark harness: regenerates every figure of the paper's evaluation
   (Section 6 and Appendix B).

   Usage:
     dune exec bench/main.exe                 -- all figures, default scale
     dune exec bench/main.exe -- fig10 fig11  -- selected figures
     dune exec bench/main.exe -- --quick      -- fast smoke of everything
     dune exec bench/main.exe -- --paper      -- larger scale (slower)
     dune exec bench/main.exe -- --json=report.json macro
                                              -- also write a machine-readable
                                                 JSON run report

   Absolute numbers depend on this machine (the substrate is a calibrated
   simulation; see DESIGN.md); the SHAPES — who wins, by what factor, where
   crossovers fall — are the reproduction targets, recorded against the
   paper in EXPERIMENTS.md. *)

module Cluster = Hyder_cluster.Cluster
module Ycsb = Hyder_workload.Ycsb
module Pipeline = Hyder_core.Pipeline
module Premeld = Hyder_core.Premeld
module Counters = Hyder_core.Counters
module Clock = Hyder_util.Clock
module Corfu = Hyder_log.Corfu
module Engine = Hyder_sim.Engine
module Stats = Hyder_util.Stats
module Table = Hyder_util.Table
module I = Hyder_codec.Intention
module Json = Hyder_obs.Json
module Flight = Hyder_obs.Flight
module Executor = Hyder_core.Executor
module Calibration = Hyder_cluster.Calibration

(* ---------------------------------------------------------------------- *)
(* Scale                                                                    *)
(* ---------------------------------------------------------------------- *)

type scale = {
  records : int;
  payload : int;
  duration : float;
  warmup : float;
  server_counts : int list;
  label : string;
}

let default_scale =
  {
    records = 1_000_000;
    payload = 128;
    duration = 0.25;
    warmup = 0.12;
    server_counts = [ 1; 2; 4; 6; 8; 10 ];
    label = "default (1M items, 128B payloads; paper: 10M x 1KB)";
  }

let quick_scale =
  {
    records = 50_000;
    payload = 64;
    duration = 0.08;
    warmup = 0.05;
    server_counts = [ 2; 6 ];
    label = "quick smoke (50K items)";
  }

let paper_scale =
  {
    records = 5_000_000;
    payload = 256;
    duration = 0.4;
    warmup = 0.2;
    server_counts = [ 1; 2; 4; 6; 8; 10 ];
    label = "large (5M items, 256B payloads)";
  }

let scale = ref default_scale

(* ---------------------------------------------------------------------- *)
(* Machine-readable run report (--json=FILE)                                *)
(* ---------------------------------------------------------------------- *)

let json_path : string option ref = ref None

(* Flight-record sink (--flight=FILE): the macro figure records every
   transaction's per-stage wait/service flight (label "seq") into this
   JSON-lines file for [hyder-cli analyze]. *)
let flight_path : string option ref = ref None

let current_figure = ref ""
let report_runs : Json.t list ref = ref [] (* newest first *)
let report_seen : (string * string, unit) Hashtbl.t = Hashtbl.create 64

(* One entry per (figure, cluster-config key): the figure name ties a run
   back to the table it fed, the key is the memoization key (a stable
   fingerprint of the full cluster config), and the result carries
   write_tps, stage_us, the conflict-zone stats and the abort breakdown. *)
let note_run key r =
  if !json_path <> None then begin
    let id = (!current_figure, key) in
    if not (Hashtbl.mem report_seen id) then begin
      Hashtbl.add report_seen id ();
      report_runs :=
        Json.Obj
          [
            ("figure", Json.String !current_figure);
            ("config_key", Json.String key);
            ("result", Cluster.result_to_json r);
          ]
        :: !report_runs
    end
  end

(* ---------------------------------------------------------------------- *)
(* Memoized cluster runs                                                    *)
(* ---------------------------------------------------------------------- *)

let results : (string, Cluster.result) Hashtbl.t = Hashtbl.create 64

let pipeline_name (c : Pipeline.config) =
  match (c.Pipeline.premeld, c.Pipeline.group_size) with
  | None, 1 -> "Hyder II"
  | None, _ -> Printf.sprintf "Hyder II-Grp%d" c.Pipeline.group_size
  | Some pc, 1 ->
      if pc = Premeld.default_config then "Hyder II-Pre"
      else Printf.sprintf "Hyder II-Pre(t=%d,d=%d)" pc.Premeld.threads pc.Premeld.distance
  | Some _, _ -> "Hyder II-Opt"

let run_cluster ?(servers = 6) ?(pipeline = Pipeline.plain) ?(read_threads = 0)
    ?(write_threads = 20) ?workload () =
  let s = !scale in
  let workload =
    match workload with
    | Some w -> w
    | None ->
        { Ycsb.default with Ycsb.record_count = s.records; payload_size = s.payload }
  in
  let cfg =
    {
      Cluster.default_config with
      Cluster.servers;
      pipeline;
      read_threads;
      write_threads;
      workload;
      duration = s.duration;
      warmup = s.warmup;
    }
  in
  let key =
    Printf.sprintf "s%d|%s|r%d|w%d|%d/%d/%.2f/%.2f/%d/%s|%d" servers
      (pipeline_name pipeline)
      read_threads write_threads
      workload.Ycsb.record_count workload.Ycsb.ops_per_txn
      workload.Ycsb.update_fraction workload.Ycsb.scan_fraction
      workload.Ycsb.payload_size
      (I.isolation_to_string workload.Ycsb.isolation)
      (match workload.Ycsb.distribution with
      | Ycsb.Uniform -> 0
      | Ycsb.Zipfian _ -> 1
      | Ycsb.Scrambled_zipfian _ -> 2
      | Ycsb.Hotspot x -> 100 + int_of_float (x *. 1000.)
      | Ycsb.Latest -> 3)
  in
  let r =
    match Hashtbl.find_opt results key with
    | Some r -> r
    | None ->
        Printf.printf "  running %s ...%!" key;
        let t0 = Hyder_util.Clock.now () in
        let r = Cluster.run cfg in
        Printf.printf " %.0f wtps (%.0fs)\n%!" r.Cluster.write_tps
          (Hyder_util.Clock.elapsed t0);
        Hashtbl.replace results key r;
        r
  in
  note_run key r;
  r

let all_pipelines =
  [
    Pipeline.plain;
    Pipeline.with_group_meld;
    Pipeline.with_premeld;
    Pipeline.with_both;
  ]

let f = Table.cell_float
let i = Table.cell_int

(* ---------------------------------------------------------------------- *)
(* Figure 9: log service append throughput and latency                      *)
(* ---------------------------------------------------------------------- *)

let fig9 () =
  List.iter
    (fun threads_per_client ->
      let t =
        Table.create
          ~title:
            (Printf.sprintf
               "Figure 9(%s): shared-log appends, %d threads/client \
                [paper: peak >140K appends/s, p99 < 10ms]"
               (if threads_per_client = 20 then "a" else "b")
               threads_per_client)
          ~columns:[ "clients"; "appends/s"; "p50 ms"; "p95 ms"; "p99 ms" ]
      in
      List.iter
        (fun clients ->
          let eng = Engine.create () in
          let corfu = Corfu.create eng in
          let seconds = 2.0 in
          let block = String.make 4000 'x' in
          let lat = Stats.Sample.create () in
          let rec loop () =
            if Engine.now eng < seconds then begin
              let t0 = Engine.now eng in
              Corfu.append corfu block (fun _ ->
                  Stats.Sample.add lat (Engine.now eng -. t0);
                  loop ())
            end
          in
          for _ = 1 to clients * threads_per_client do
            loop ()
          done;
          Engine.run ~until:seconds eng;
          let p pct = 1000.0 *. Stats.Sample.percentile lat pct in
          Table.add_row t
            [
              i clients;
              f (float_of_int (Corfu.appends_completed corfu) /. seconds);
              f (p 50.0);
              f (p 95.0);
              f (p 99.0);
            ])
        [ 1; 2; 4; 6; 8; 10 ];
      Table.print t)
    [ 20; 30 ]

(* ---------------------------------------------------------------------- *)
(* Figure 10: write throughput vs servers, per optimization                 *)
(* ---------------------------------------------------------------------- *)

let fig10 () =
  let t =
    Table.create
      ~title:
        "Figure 10: committed write txns/s vs servers (all-write workload, \
         SR) [paper peaks: Hyder II 15K, -Grp 23.5K, -Pre 45.3K, -Opt 44.8K \
         => Grp 1.6x, Pre 3x]"
      ~columns:
        ("servers" :: List.map pipeline_name all_pipelines)
  in
  List.iter
    (fun servers ->
      Table.add_row t
        (i servers
        :: List.map
             (fun p ->
               f (run_cluster ~servers ~pipeline:p ()).Cluster.write_tps)
             all_pipelines))
    !scale.server_counts;
  Table.print t;
  (* Ratios at the 6-server point, the paper's headline comparison. *)
  let at p = (run_cluster ~servers:6 ~pipeline:p ()).Cluster.write_tps in
  let base = at Pipeline.plain in
  Printf.printf
    "speedups at 6 servers: Grp %.2fx, Pre %.2fx, Opt %.2fx (paper: 1.6x, \
     3x, ~3x)\n"
    (at Pipeline.with_group_meld /. base)
    (at Pipeline.with_premeld /. base)
    (at Pipeline.with_both /. base)

(* ---------------------------------------------------------------------- *)
(* Figures 11-13: final-meld work breakdown at 6 servers                    *)
(* ---------------------------------------------------------------------- *)

let fig11 () =
  let t =
    Table.create
      ~title:
        "Figure 11: tree nodes visited by FINAL MELD per txn [paper: Grp \
         ~2x fewer, Pre 8-10x fewer]"
      ~columns:[ "config"; "fm nodes/txn"; "vs Hyder II" ]
  in
  let base =
    (run_cluster ~pipeline:Pipeline.plain ()).Cluster.fm_nodes_per_txn
  in
  List.iter
    (fun p ->
      let v = (run_cluster ~pipeline:p ()).Cluster.fm_nodes_per_txn in
      Table.add_row t
        [ pipeline_name p; f v; Printf.sprintf "%.2fx" (base /. v) ])
    all_pipelines;
  Table.print t

let fig12 () =
  let t =
    Table.create
      ~title:
        "Figure 12: conflict zone observed by final meld, in intention \
         blocks [paper: premeld shrinks it 40x-500x; group meld unchanged]"
      ~columns:[ "config"; "zone (intentions)"; "zone (blocks)"; "vs Hyder II" ]
  in
  let base =
    (run_cluster ~pipeline:Pipeline.plain ()).Cluster.conflict_zone_blocks
  in
  List.iter
    (fun p ->
      let r = run_cluster ~pipeline:p () in
      Table.add_row t
        [
          pipeline_name p;
          f r.Cluster.conflict_zone_intentions;
          f r.Cluster.conflict_zone_blocks;
          Printf.sprintf "%.0fx" (base /. max 1.0 r.Cluster.conflict_zone_blocks);
        ])
    all_pipelines;
  Table.print t

let fig13 () =
  let t =
    Table.create
      ~title:
        "Figure 13: nodes visited per txn in each pipeline stage [paper: \
         fm work falls with each optimization; pm+gm aggregate exceeds \
         plain fm]"
      ~columns:[ "config"; "fm"; "pm (all threads)"; "gm"; "total" ]
  in
  List.iter
    (fun p ->
      let r = run_cluster ~pipeline:p () in
      let fm = r.Cluster.fm_nodes_per_txn
      and pm = r.Cluster.pm_nodes_per_txn
      and gm = r.Cluster.gm_nodes_per_txn in
      Table.add_row t [ pipeline_name p; f fm; f pm; f gm; f (fm +. pm +. gm) ])
    all_pipelines;
  Table.print t

(* ---------------------------------------------------------------------- *)
(* Section 6.4.2: comparison with Tango and in-memory Hyder                 *)
(* ---------------------------------------------------------------------- *)

let tango () =
  let t =
    Table.create
      ~title:
        "Section 6.4.2: 100K-item comparison [paper: Hyder II ~20K tps, \
         Tango 15-25K tps, in-memory Hyder [8] 50-60K tps, Hyder II-Pre \
         beats Tango]"
      ~columns:[ "system"; "throughput (tps)"; "note" ]
  in
  let wl =
    { Ycsb.default with Ycsb.record_count = 100_000; payload_size = !scale.payload }
  in
  let r_plain = run_cluster ~pipeline:Pipeline.plain ~workload:wl () in
  let r_pre = run_cluster ~pipeline:Pipeline.with_premeld ~workload:wl () in
  Table.add_row t
    [ "Hyder II (6 servers)"; f r_plain.Cluster.write_tps; "tree index, SR" ];
  Table.add_row t
    [ "Hyder II-Pre (6 servers)"; f r_pre.Cluster.write_tps; "tree index, SR" ];
  (* Tango: hash index, apply-bound.  Note our substrate only models the
     hash apply loop, which is far cheaper than Tango's published end-to-end
     numbers (15-25K tps including RPC and client costs we do not model);
     the comparable quantities are the ordering and the index trade-off. *)
  let module Tango = Hyder_baselines.Tango in
  let apply_us, tango_aborts =
    Tango.run_workload ~records:100_000 ~txns:50_000 ~window:2_000
      ~reads_per_txn:8 ~writes_per_txn:2 ()
  in
  Table.add_row t
    [
      "Tango (hash index)";
      f (1e6 /. apply_us);
      Printf.sprintf
        "apply-bound ceiling, %.1fus/txn, %.1f%% aborts, no range queries"
        apply_us (100.0 *. tango_aborts);
    ];
  (* In-memory Hyder [8]: single node, conflict zone capped at 256. *)
  let r8 = Hyder_baselines.Inmem_hyder.run ~txns:15_000 ~workload:wl () in
  Table.add_row t
    [
      "in-memory Hyder [8]";
      f r8.Hyder_baselines.Inmem_hyder.meld_bound_tps;
      Printf.sprintf "meld-bound, %.1fus/txn, zone<=256"
        r8.Hyder_baselines.Inmem_hyder.meld_us;
    ];
  Table.print t

(* ---------------------------------------------------------------------- *)
(* Figure 14: read-only scaling                                             *)
(* ---------------------------------------------------------------------- *)

let fig14 () =
  let t =
    Table.create
      ~title:
        "Figure 14: total and write txns/s with 6 write + {0,1,2,4} read \
         executors per server (premeld) [paper: total scales ~linearly to \
         670K tps at 10 servers/4R; write tps dips slightly as read \
         executors steal cores]"
      ~columns:
        [ "servers"; "mix"; "write tps"; "read tps"; "total tps" ]
  in
  let server_counts =
    List.filter (fun s -> s >= 2) !scale.server_counts
  in
  List.iter
    (fun servers ->
      List.iter
        (fun read_threads ->
          let r =
            run_cluster ~servers ~pipeline:Pipeline.with_premeld
              ~write_threads:6 ~read_threads ()
          in
          Table.add_row t
            [
              i servers;
              Printf.sprintf "6W-%dR" read_threads;
              f r.Cluster.write_tps;
              f r.Cluster.read_tps;
              f r.Cluster.total_tps;
            ])
        [ 0; 1; 2; 4 ])
    server_counts;
  Table.print t

(* ---------------------------------------------------------------------- *)
(* Figures 15-17: snapshot isolation                                        *)
(* ---------------------------------------------------------------------- *)

let si_workload () =
  {
    Ycsb.default with
    Ycsb.record_count = !scale.records;
    payload_size = !scale.payload;
    isolation = I.Snapshot_isolation;
  }

let fig15 () =
  let t =
    Table.create
      ~title:
        "Figure 15: serializable vs snapshot isolation, no optimizations \
         [paper: SI gives ~2.5x tps from ~4x smaller intentions and 3-4x \
         fewer nodes melded]"
      ~columns:
        [ "isolation"; "write tps"; "fm nodes/txn"; "intention bytes" ]
  in
  let sr = run_cluster ~pipeline:Pipeline.plain () in
  let si = run_cluster ~pipeline:Pipeline.plain ~workload:(si_workload ()) () in
  List.iter
    (fun (name, (r : Cluster.result)) ->
      Table.add_row t
        [
          name;
          f r.Cluster.write_tps;
          f r.Cluster.fm_nodes_per_txn;
          f r.Cluster.intention_bytes;
        ])
    [ ("serializable", sr); ("snapshot isolation", si) ];
  Table.print t;
  Printf.printf
    "SI/SR: %.2fx tps, %.2fx fewer fm nodes, %.2fx smaller intentions \
     (paper: ~2.5x, 3-4x, ~4x)\n"
    (si.Cluster.write_tps /. sr.Cluster.write_tps)
    (sr.Cluster.fm_nodes_per_txn /. si.Cluster.fm_nodes_per_txn)
    (sr.Cluster.intention_bytes /. si.Cluster.intention_bytes)

let fig16 () =
  let t =
    Table.create
      ~title:
        "Figure 16: optimizations under snapshot isolation [paper: premeld \
         still 2x-3x; group meld insignificant]"
      ~columns:[ "config"; "write tps"; "vs plain" ]
  in
  let base =
    (run_cluster ~pipeline:Pipeline.plain ~workload:(si_workload ()) ())
      .Cluster.write_tps
  in
  List.iter
    (fun p ->
      let r = run_cluster ~pipeline:p ~workload:(si_workload ()) () in
      Table.add_row t
        [
          pipeline_name p;
          f r.Cluster.write_tps;
          Printf.sprintf "%.2fx" (r.Cluster.write_tps /. base);
        ])
    all_pipelines;
  Table.print t

let fig17 () =
  let t =
    Table.create
      ~title:
        "Figure 17: fm nodes visited under SI [paper: only premeld reduces \
         them; group meld ~10% because 2-write intentions barely overlap]"
      ~columns:[ "config"; "fm nodes/txn"; "vs plain" ]
  in
  let base =
    (run_cluster ~pipeline:Pipeline.plain ~workload:(si_workload ()) ())
      .Cluster.fm_nodes_per_txn
  in
  List.iter
    (fun p ->
      let r = run_cluster ~pipeline:p ~workload:(si_workload ()) () in
      Table.add_row t
        [
          pipeline_name p;
          f r.Cluster.fm_nodes_per_txn;
          Printf.sprintf "%.2fx" (base /. r.Cluster.fm_nodes_per_txn);
        ])
    all_pipelines;
  Table.print t

(* ---------------------------------------------------------------------- *)
(* Figures 18-19: skewed access                                             *)
(* ---------------------------------------------------------------------- *)

let fig18_19 () =
  let t =
    Table.create
      ~title:
        "Figures 18-19: hotspot skew x (x of the items get 1-x of accesses) \
         [paper: plain tps RISES with skew (meld terminates higher); \
         premeld flat at ~3.5x plain; abort rate grows slightly]"
      ~columns:
        [
          "x"; "Hyder II tps"; "II fm nodes"; "II aborts %";
          "Pre tps"; "Pre fm nodes"; "Pre aborts %";
        ]
  in
  List.iter
    (fun x ->
      let wl dist =
        {
          Ycsb.default with
          Ycsb.record_count = !scale.records;
          payload_size = !scale.payload;
          distribution = dist;
        }
      in
      let dist = if x >= 1.0 then Ycsb.Uniform else Ycsb.Hotspot x in
      let plain = run_cluster ~pipeline:Pipeline.plain ~workload:(wl dist) () in
      let pre =
        run_cluster ~pipeline:Pipeline.with_premeld ~workload:(wl dist) ()
      in
      Table.add_row t
        [
          f x;
          f plain.Cluster.write_tps;
          f plain.Cluster.fm_nodes_per_txn;
          f (100.0 *. plain.Cluster.abort_rate);
          f pre.Cluster.write_tps;
          f pre.Cluster.fm_nodes_per_txn;
          f (100.0 *. pre.Cluster.abort_rate);
        ])
    [ 0.05; 0.1; 0.25; 0.5; 1.0 ];
  Table.print t

(* ---------------------------------------------------------------------- *)
(* Figure 20: premeld distance                                              *)
(* ---------------------------------------------------------------------- *)

let fig20 () =
  let t =
    Table.create
      ~title:
        "Figure 20: throughput vs premeld distance d (5 threads) [paper: \
         best at d=10, declining as d grows]"
      ~columns:[ "d"; "write tps"; "fm zone (intentions)" ]
  in
  List.iter
    (fun d ->
      let pipeline =
        {
          Pipeline.premeld = Some { Premeld.threads = 5; distance = d };
          group_size = 1;
        }
      in
      let r = run_cluster ~pipeline () in
      Table.add_row t
        [ i d; f r.Cluster.write_tps; f r.Cluster.conflict_zone_intentions ])
    [ 1; 5; 10; 50; 100; 400 ];
  Table.print t

(* ---------------------------------------------------------------------- *)
(* Figures 21-22: transaction size                                          *)
(* ---------------------------------------------------------------------- *)

let fig21_22 () =
  let t =
    Table.create
      ~title:
        "Figures 21-22: ops per txn (20% updates) [paper: tps falls \
         ~proportionally with txn size; premeld stays ~3x with ~7x fewer \
         fm nodes]"
      ~columns:
        [ "ops"; "Hyder II tps"; "II fm nodes"; "Pre tps"; "Pre fm nodes"; "Pre/II" ]
  in
  List.iter
    (fun ops ->
      let wl =
        {
          Ycsb.default with
          Ycsb.record_count = !scale.records;
          payload_size = !scale.payload;
          ops_per_txn = ops;
        }
      in
      let plain = run_cluster ~pipeline:Pipeline.plain ~workload:wl () in
      let pre = run_cluster ~pipeline:Pipeline.with_premeld ~workload:wl () in
      Table.add_row t
        [
          i ops;
          f plain.Cluster.write_tps;
          f plain.Cluster.fm_nodes_per_txn;
          f pre.Cluster.write_tps;
          f pre.Cluster.fm_nodes_per_txn;
          Printf.sprintf "%.2fx" (pre.Cluster.write_tps /. plain.Cluster.write_tps);
        ])
    [ 4; 8; 16; 32 ];
  Table.print t

(* ---------------------------------------------------------------------- *)
(* Figures 23-24: update fraction                                           *)
(* ---------------------------------------------------------------------- *)

let fig23_24 () =
  let t =
    Table.create
      ~title:
        "Figures 23-24: update fraction of a 10-op txn [paper: tps falls as \
         updates grow; ephemeral nodes created grow with update fraction, \
         premeld/gm create slightly more]"
      ~columns:
        [
          "updates"; "Hyder II tps"; "II eph/txn"; "Pre tps"; "Pre eph/txn";
        ]
  in
  List.iter
    (fun u ->
      let wl =
        {
          Ycsb.default with
          Ycsb.record_count = !scale.records;
          payload_size = !scale.payload;
          update_fraction = u;
        }
      in
      let plain = run_cluster ~pipeline:Pipeline.plain ~workload:wl () in
      let pre = run_cluster ~pipeline:Pipeline.with_premeld ~workload:wl () in
      Table.add_row t
        [
          f u;
          f plain.Cluster.write_tps;
          f plain.Cluster.ephemerals_per_txn;
          f pre.Cluster.write_tps;
          f pre.Cluster.ephemerals_per_txn;
        ])
    [ 0.1; 0.2; 0.5; 1.0 ];
  Table.print t

(* ---------------------------------------------------------------------- *)
(* Ablations beyond the paper                                               *)
(* ---------------------------------------------------------------------- *)

let abl_premeld_threads () =
  let t =
    Table.create
      ~title:
        "Ablation: premeld thread count at d=10 (paper used 5) — premeld \
         capacity scales with threads until another stage binds"
      ~columns:[ "threads"; "write tps"; "pm us/txn" ]
  in
  List.iter
    (fun threads ->
      let pipeline =
        {
          Pipeline.premeld = Some { Premeld.threads; distance = 10 };
          group_size = 1;
        }
      in
      let r = run_cluster ~pipeline () in
      let _, pm, _, _ = r.Cluster.stage_us in
      Table.add_row t [ i threads; f r.Cluster.write_tps; f pm ])
    [ 1; 2; 5; 8 ];
  Table.print t

let abl_group_size () =
  let t =
    Table.create
      ~title:
        "Ablation: group size (paper pairs; larger groups amortize more but \
         widen fate sharing)"
      ~columns:[ "group size"; "write tps"; "abort %"; "fm nodes/txn" ]
  in
  List.iter
    (fun g ->
      let pipeline = { Pipeline.premeld = None; group_size = g } in
      let r = run_cluster ~pipeline () in
      Table.add_row t
        [
          i g;
          f r.Cluster.write_tps;
          f (100.0 *. r.Cluster.abort_rate);
          f r.Cluster.fm_nodes_per_txn;
        ])
    [ 1; 2; 4; 8 ];
  Table.print t

let abl_admission () =
  let t =
    Table.create
      ~title:
        "Ablation: adaptive admission control (the paper's future work,          Section 5.2) under heavy contention — AIMD trades a little          throughput headroom for far fewer aborts"
      ~columns:[ "admission"; "write tps"; "abort %" ]
  in
  let wl =
    { Ycsb.default with Ycsb.record_count = 100_000; payload_size = !scale.payload }
  in
  List.iter
    (fun (name, adaptive) ->
      let cfg =
        {
          Cluster.default_config with
          Cluster.servers = 6;
          workload = wl;
          duration = !scale.duration;
          warmup = !scale.warmup;
          adaptive_admission = adaptive;
        }
      in
      let r = Cluster.run cfg in
      note_run ("admission=" ^ name) r;
      Table.add_row t
        [ name; f r.Cluster.write_tps; f (100.0 *. r.Cluster.abort_rate) ])
    [
      ("fixed 80/thread", None);
      ("adaptive AIMD", Some Hyder_cluster.Admission.default_config);
    ];
  Table.print t

let abl_index_size () =
  let t =
    Table.create
      ~title:
        "Ablation: binary tree vs B-tree under copy-on-write (the Section 2          design argument: a binary tree consumes less storage per update,          so intentions are smaller and meld faster)"
      ~columns:
        [ "index"; "depth"; "bytes copied / 10-op txn"; "vs binary" ]
  in
  let module B = Hyder_baselines.Cow_btree in
  let n = 200_000 in
  let payload = String.make 64 'v' in
  let items = Array.init n (fun k -> (k, payload)) in
  let treap =
    Hyder_tree.Tree.of_sorted_array
      (Array.map (fun (k, v) -> (k, Hyder_tree.Payload.value v)) items)
  in
  let rng = Hyder_util.Rng.create 12L in
  (* binary baseline: measure real serialized intention bytes *)
  let binary_bytes =
    let total = ref 0 in
    for i = 1 to 100 do
      let e =
        Hyder_core.Executor.begin_txn ~snapshot_pos:(-1) ~snapshot:treap
          ~server:0 ~txn_seq:i ~isolation:I.Snapshot_isolation ()
      in
      for _ = 1 to 10 do
        Hyder_core.Executor.write e (Hyder_util.Rng.int rng n) payload
      done;
      (match Hyder_core.Executor.finish e with
      | Some d -> total := !total + Hyder_codec.Codec.encoded_size d
      | None -> ());
      ()
    done;
    float_of_int !total /. 100.0
  in
  Table.add_row t
    [
      "binary (treap, as shipped)";
      i (Hyder_tree.Tree.depth treap);
      f binary_bytes;
      "1.00x";
    ];
  List.iter
    (fun fanout ->
      let btree = B.create ~fanout items in
      let total = ref 0 in
      for _ = 1 to 100 do
        for _ = 1 to 10 do
          let _, st = B.update btree (Hyder_util.Rng.int rng n) payload in
          total := !total + st.B.bytes_copied
        done
      done;
      let per_txn = float_of_int !total /. 100.0 in
      Table.add_row t
        [
          Printf.sprintf "B-tree fanout %d" fanout;
          i (B.depth btree);
          f per_txn;
          Printf.sprintf "%.1fx" (per_txn /. binary_bytes);
        ])
    [ 16; 64; 256 ];
  Table.print t

(* ---------------------------------------------------------------------- *)
(* Macro benchmark: the tracked perf trajectory (BENCH_MACRO.json)          *)
(* ---------------------------------------------------------------------- *)

(* Record a deterministic wire stream for a replay.  [txn rng
   ~snapshot_pos ~snapshot ~txn_seq] runs one transaction against a
   snapshot up to 80 intentions old and returns its encoded intention
   ([None] if it wrote nothing).  The generator is wire-fed, like a real
   replica — it melds what it decodes — so the encoder's payload
   elisions and version references resolve on any replay of the same
   bytes.  Returns the (pos, bytes) list in log order. *)
let record_wire_stream ~seed ~txns ~config ~genesis ~txn =
  let rng = Hyder_util.Rng.create seed in
  let gen = Pipeline.create ~config ~genesis () in
  let history = ref [ (-1, genesis) ] (* newest first *) in
  let hist_len = ref 1 in
  let wires = ref [] in
  let next_pos = ref 0 in
  for txn_seq = 0 to txns - 1 do
    let lag = min (Hyder_util.Rng.int rng 80) (!hist_len - 1) in
    let snapshot_pos, snapshot = List.nth !history lag in
    match txn rng ~snapshot_pos ~snapshot ~txn_seq with
    | None -> ()
    | Some src ->
        next_pos := !next_pos + 2;
        let intention = Pipeline.decode gen ~pos:!next_pos src in
        wires := (!next_pos, src) :: !wires;
        ignore (Pipeline.submit gen intention);
        let _, pos, tree = Pipeline.lcs gen in
        history := (pos, tree) :: !history;
        incr hist_len
  done;
  ignore (Pipeline.flush gen);
  List.rev !wires

let batches_of ~slab wires =
  let rec take k acc = function
    | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
    | rest -> (List.rev acc, rest)
  in
  let rec go = function
    | [] -> []
    | l ->
        let s, rest = take slab [] l in
        s :: go rest
  in
  go wires

(* Steady-state numbers for the final-meld critical path, tracked via
   `make bench-macro` → BENCH_MACRO.json and gated by
   scripts/check_bench_smoke.py.  A fixed-seed wire stream (identical
   bytes run to run, so gate movement is code, not workload) is replayed
   once; the first [warm_txns] intentions are warmup — the pipeline's
   counters are copied at the boundary and diffed at the end.  Each
   stage's seconds and minor words come from the same [Counters.stage]
   record, booked by the pipeline's one stage bracket (exact
   [Gc.minor_words] deltas around the stage's work).  The stream's mean
   encoded size is reported too: it depends on the wire format alone, so
   the gate on it sees format changes and nothing else. *)
let macro () =
  let module Tree = Hyder_tree.Tree in
  let module Payload = Hyder_tree.Payload in
  let txns = 6_000 in
  let warm_txns = 1_000 in
  let n = 50_000 in
  let config =
    { Pipeline.premeld = Some { Premeld.threads = 5; distance = 10 };
      group_size = 2 }
  in
  let genesis =
    Tree.of_sorted_array
      (Array.init n (fun k -> (k, Payload.value ("v" ^ string_of_int k))))
  in
  (* Two uniform reads and two uniform writes per transaction. *)
  let txn rng ~snapshot_pos ~snapshot ~txn_seq =
    let e =
      Executor.begin_txn ~snapshot_pos ~snapshot ~server:0 ~txn_seq
        ~isolation:I.Serializable ()
    in
    for _ = 1 to 2 do
      ignore (Executor.read e (Hyder_util.Rng.int rng n))
    done;
    for _ = 1 to 2 do
      Executor.write e (Hyder_util.Rng.int rng n) ("u" ^ string_of_int txn_seq)
    done;
    Option.map Hyder_codec.Codec.encode (Executor.finish e)
  in
  let wires = record_wire_stream ~seed:271828L ~txns ~config ~genesis ~txn in
  let count = List.length wires in
  let wire_bytes =
    List.fold_left (fun acc (_, src) -> acc + String.length src) 0 wires
  in
  let warm, rest =
    let rec split k acc = function
      | x :: tl when k > 0 -> split (k - 1) (x :: acc) tl
      | tl -> (List.rev acc, tl)
    in
    split warm_txns [] wires
  in
  let warm_batches = batches_of ~slab:256 warm in
  let meas_batches = batches_of ~slab:256 rest in
  let name = "seq" in
  let flight_sink =
    match !flight_path with None -> None | Some path -> Some (open_out path)
  in
  let flight =
    match flight_sink with
    | None -> Flight.disabled
    | Some oc -> Flight.create ~label:name ~sink:oc ()
  in
  let p = Pipeline.create ~config ~flight ~genesis () in
  List.iter (fun b -> ignore (Pipeline.submit_wire_batch p b)) warm_batches;
  let c0 = Counters.copy (Pipeline.counters p) in
  let t0 = Clock.now () in
  let melded =
    List.fold_left
      (fun acc b -> acc + List.length (Pipeline.submit_wire_batch p b))
      0 meas_batches
    + List.length (Pipeline.flush p)
  in
  let wall = Clock.elapsed t0 in
  let c1 = Pipeline.counters p in
  (match (flight_sink, !flight_path) with
  | Some oc, Some path ->
      close_out oc;
      Printf.printf "flight records -> %s\n" path
  | _ -> ());
  let meldedf = float_of_int melded in
  let sdelta f = f c1 -. f c0 in
  (* A stage's seconds and minor words/txn over the measured window. *)
  let stage get =
    let s1 : Counters.stage = get c1 and s0 : Counters.stage = get c0 in
    ( s1.seconds -. s0.seconds,
      float_of_int (s1.minor_words - s0.minor_words) /. meldedf )
  in
  let ds, ds_minor = stage (fun c -> c.Counters.deserialize) in
  let pm, pm_minor = stage (fun c -> c.Counters.premeld) in
  let gm, gm_minor = stage (fun c -> c.Counters.group_meld) in
  let fm, fm_minor = stage (fun c -> c.Counters.final_meld) in
  let driver_s = ds +. pm +. gm +. fm in
  let melds_per_s = meldedf /. wall in
  let fm_ns = fm /. meldedf *. 1e9 in
  let driver_us = driver_s /. meldedf *. 1e6 in
  let wire_bytes_per_txn = float_of_int wire_bytes /. float_of_int count in
  let total_minor = ds_minor +. pm_minor +. gm_minor +. fm_minor in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Macro: %d intentions (last %d measured, warmup excluded) — \
            melds/s, fm critical path and GC words per txn"
           count (count - warm_txns))
      ~columns:
        [ "runtime"; "melds/s"; "fm ns/txn"; "driver us/int";
          "ds minor w/txn"; "fm minor w/txn"; "total minor w/txn";
          "wire B/txn" ]
  in
  Table.add_row t
    [
      name;
      Printf.sprintf "%.0f" melds_per_s;
      Printf.sprintf "%.0f" fm_ns;
      Printf.sprintf "%.2f" driver_us;
      Printf.sprintf "%.1f" ds_minor;
      Printf.sprintf "%.1f" fm_minor;
      Printf.sprintf "%.1f" total_minor;
      Printf.sprintf "%.2f" wire_bytes_per_txn;
    ];
  if !json_path <> None then begin
    let us x = Json.Float (x /. meldedf *. 1e6) in
    report_runs :=
      Json.Obj
        [
          ("figure", Json.String "macro");
          ("runtime", Json.String name);
          ("cores", Json.Int (Domain.recommended_domain_count ()));
          ("intentions_total", Json.Int count);
          ("intentions_measured", Json.Int melded);
          ("wall_s", Json.Float wall);
          ("melds_per_s", Json.Float melds_per_s);
          ("fm_ns_per_txn", Json.Float fm_ns);
          ("driver_critical_path_us", Json.Float driver_us);
          ("driver_share_of_wall", Json.Float (driver_s /. wall));
          ("wire_bytes_per_txn", Json.Float wire_bytes_per_txn);
          ( "ds_nodes_per_txn",
            Json.Float
              (sdelta (fun c ->
                   float_of_int c.Counters.deserialize.Counters.nodes_visited)
              /. meldedf) );
          ( "stage_us",
            Json.Obj
              [ ("ds", us ds); ("pm", us pm); ("gm", us gm); ("fm", us fm) ] );
          ( "gc_words_per_txn",
            Json.Obj
              [
                ("ds_minor", Json.Float ds_minor);
                ("pm_minor", Json.Float pm_minor);
                ("gm_minor", Json.Float gm_minor);
                ("fm_minor", Json.Float fm_minor);
              ] );
          ("total_minor", Json.Float total_minor);
        ]
      :: !report_runs
  end;
  Table.print t;
  Printf.printf
    "(fm minor w/txn = minor-heap words allocated by final meld per \
     measured intention; total = ds + pm + gm + fm; wire B/txn = mean \
     encoded size over all %d intentions)\n"
    count

(* ---------------------------------------------------------------------- *)
(* Stage-cost calibration (lib/cluster/calibration.ml)                      *)
(* ---------------------------------------------------------------------- *)

(* One timed unit of work: its (runs, a, b) counts and measured seconds. *)
type sample = { x : int * int * int; y : float }

(* Least squares with non-negative coefficients over three features: the
   unconstrained fit of every feature subset, keeping the one with the
   least squared error whose coefficients are all >= 0 (exact for three
   features).  A subset whose normal equations are singular (a feature
   that is always 0, or collinear with another) is skipped. *)
let fit_nonneg samples =
  let feats { x = a, b, c; _ } = [| float_of_int a; float_of_int b; float_of_int c |] in
  let xtx = Array.make_matrix 3 3 0.0 and xty = Array.make 3 0.0 in
  let yty = ref 0.0 in
  List.iter
    (fun smp ->
      let v = feats smp in
      for i = 0 to 2 do
        xty.(i) <- xty.(i) +. (v.(i) *. smp.y);
        for j = 0 to 2 do
          xtx.(i).(j) <- xtx.(i).(j) +. (v.(i) *. v.(j))
        done
      done;
      yty := !yty +. (smp.y *. smp.y))
    samples;
  (* Gauss-Jordan with partial pivoting on the [idx] sub-system. *)
  let solve idx =
    let k = Array.length idx in
    let a = Array.init k (fun r -> Array.init k (fun c -> xtx.(idx.(r)).(idx.(c)))) in
    let b = Array.init k (fun r -> xty.(idx.(r))) in
    let ok = ref true in
    for c = 0 to k - 1 do
      if !ok then begin
        let p = ref c in
        for r = c + 1 to k - 1 do
          if Float.abs a.(r).(c) > Float.abs a.(!p).(c) then p := r
        done;
        let tmp = a.(c) and tb = b.(c) in
        a.(c) <- a.(!p); a.(!p) <- tmp; b.(c) <- b.(!p); b.(!p) <- tb;
        if Float.abs a.(c).(c) <= 1e-9 *. xtx.(idx.(c)).(idx.(c)) || a.(c).(c) = 0.0
        then ok := false
        else
          for r = 0 to k - 1 do
            if r <> c then begin
              let f = a.(r).(c) /. a.(c).(c) in
              for j = c to k - 1 do
                a.(r).(j) <- a.(r).(j) -. (f *. a.(c).(j))
              done;
              b.(r) <- b.(r) -. (f *. b.(c))
            end
          done
      end
    done;
    if !ok then Some (Array.init k (fun r -> b.(r) /. a.(r).(r))) else None
  in
  let best = ref None in
  for mask = 1 to 7 do
    let idx = List.filter (fun i -> mask land (1 lsl i) <> 0) [ 0; 1; 2 ] |> Array.of_list in
    match solve idx with
    | Some beta when Array.for_all (fun v -> v >= 0.0) beta ->
        let coef = Array.make 3 0.0 in
        Array.iteri (fun r i -> coef.(i) <- beta.(r)) idx;
        let sse = ref !yty in
        for i = 0 to 2 do
          sse := !sse -. (2.0 *. coef.(i) *. xty.(i));
          for j = 0 to 2 do
            sse := !sse +. (coef.(i) *. coef.(j) *. xtx.(i).(j))
          done
        done;
        (match !best with
        | Some (s, _) when s <= !sse -> ()
        | _ -> best := Some (!sse, coef))
    | _ -> ()
  done;
  match !best with Some (_, c) -> c | None -> [| 0.0; 0.0; 0.0 |]

(* A model's error on samples it was not fitted on: the relative error
   of its total (what the simulation's throughput sees) and the RMS of
   the per-sample error relative to the mean (how noisy one sample is). *)
let residual (m : Calibration.model) samples =
  let n = float_of_int (max 1 (List.length samples)) in
  let sp, sy, se2 =
    List.fold_left
      (fun (sp, sy, se2) smp ->
        let p = Calibration.time m smp.x in
        (sp +. p, sy +. smp.y, se2 +. ((p -. smp.y) ** 2.0)))
      (0.0, 0.0, 0.0) samples
  in
  let bias = if sy = 0.0 then 0.0 else (sp /. sy) -. 1.0 in
  let rms = if sy = 0.0 then 0.0 else sqrt (se2 /. n) /. (sy /. n) in
  (bias, rms, sy /. n)

let calibration_models =
  [
    ("ds", "runs; nodes decoded; wire bytes");
    ("pm", "runs; nodes visited; ephemerals");
    ("gm", "runs; nodes visited; ephemerals");
    ("fm", "runs (members melded); nodes visited; ephemerals");
    ("exec", "transactions; ops; encoded bytes");
    ("read", "transactions; ops; nothing");
  ]

(* Samples of every model over the 4 pipelines x {uniform, hotspot}
   streams at [records] keys, by model in [calibration_models] order,
   each model's samples in the order they were taken.  Each
   transaction's op count cycles through [ops] so the per-op cost is
   identifiable apart from the fixed one. *)
let calibration_samples ~records ~txns =
  let module Codec = Hyder_codec.Codec in
  let acc = Array.make 6 [] in
  let add m x y = acc.(m) <- { x; y } :: acc.(m) in
  let ops = [| 4; 10; 16; 32 |] in
  List.iter
    (fun dist ->
      List.iteri
        (fun k config ->
          let seed = Int64.of_int (1000 + k) in
          let wls =
            Array.mapi
              (fun j ops_per_txn ->
                Ycsb.create ~seed:(Int64.add seed (Int64.of_int j))
                  {
                    Ycsb.default with
                    Ycsb.record_count = records;
                    payload_size = default_scale.payload;
                    ops_per_txn;
                    distribution = dist;
                  })
              ops
          in
          let genesis = Ycsb.genesis wls.(0) in
          let encoder = Codec.Encoder.create () in
          (* The executor's and a read-only transaction's cost, timed as
             the simulator charges them: generating the ops, running them,
             and (for a write) building and encoding the intention. *)
          let txn _rng ~snapshot_pos ~snapshot ~txn_seq =
            let wl = wls.(txn_seq mod Array.length wls) in
            let begin_txn () =
              Executor.begin_txn ~snapshot_pos ~snapshot ~server:0 ~txn_seq
                ~isolation:(Ycsb.config wl).Ycsb.isolation ()
            in
            let t0 = Clock.now () in
            let e = begin_txn () in
            let reads = Ycsb.next_read_only_txn wl in
            Ycsb.apply reads e;
            ignore (Executor.finish e);
            add 5 (1, List.length reads, 0) (Clock.now () -. t0);
            let t0 = Clock.now () in
            let e = begin_txn () in
            let writes = Ycsb.next_write_txn wl in
            Ycsb.apply writes e;
            Option.map
              (fun d ->
                let src = Codec.Encoder.encode encoder d in
                add 4 (1, List.length writes, String.length src) (Clock.now () -. t0);
                src)
              (Executor.finish e)
          in
          let wires = record_wire_stream ~seed ~txns ~config ~genesis ~txn in
          (* Replay one intention per submit, as the simulator does, and
             take each stage's work and seconds from the counters. *)
          let p = Pipeline.create ~config ~genesis () in
          let c = Pipeline.counters p in
          List.iteri
            (fun k (pos, src) ->
              let before = Counters.copy c in
              ignore (Pipeline.submit_wire_batch p [ (pos, src) ]);
              let w = Cluster.work ~before c ~bytes:(String.length src) in
              List.iteri
                (fun s (get : Counters.t -> Counters.stage) ->
                  let runs, _, _ = w.(s) in
                  if runs > 0 then add s w.(s) ((get c).seconds -. (get before).seconds))
                [ (fun c -> c.Counters.deserialize); (fun c -> c.premeld);
                  (fun c -> c.group_meld); (fun c -> c.final_meld) ];
              if k land 1023 = 1023 then Pipeline.prune p ~keep:512)
            wires)
        all_pipelines)
    [ Ycsb.Uniform; Ycsb.Hotspot 0.05 ];
  Array.map List.rev acc

let calibration_prelude =
  {|(* Generated by [dune exec bench/main.exe -- calibrate]; do not edit.

   Each model gives a service time in seconds as
   [per_run * runs + per_a * a + per_b * b] over work counts the real
   pipeline and executor report ([Cluster.work] names them).  [held_out]
   is the relative error of the model's total over the samples it was
   not fitted on (odd positions of the 1M-record streams);
   [held_out_50k], over 50k-record streams. *)

type model = {
  per_run : float;
  per_a : float;
  per_b : float;
  held_out : float;
  held_out_50k : float;
}

let time m (runs, a, b) =
  (m.per_run *. float_of_int runs)
  +. (m.per_a *. float_of_int a)
  +. (m.per_b *. float_of_int b)
|}

let host_description () =
  let cpu =
    try
      In_channel.with_open_text "/proc/cpuinfo" (fun ic ->
          let rec find () =
            match In_channel.input_line ic with
            | None -> "unknown CPU"
            | Some l when String.starts_with ~prefix:"model name" l ->
                String.trim (List.nth (String.split_on_char ':' l) 1)
            | Some _ -> find ()
          in
          find ())
    with Sys_error _ -> "unknown CPU"
  in
  Printf.sprintf "%s, %d cores, OCaml %s" cpu
    (Domain.recommended_domain_count ())
    Sys.ocaml_version

(* Fit every model on the even-indexed samples of the default scale's
   streams, report the held-out error on the odd ones and on 50k-record
   streams, and write the models to lib/cluster/calibration.ml (run from
   the repository root; rebuild to use them).  [--quick] and [--paper]
   do not apply: the committed models are fitted at 1M records, whatever
   scale the figures later run at. *)
let calibrate () =
  let records = default_scale.records in
  let txns = 12_000 in
  let t0 = Clock.now () in
  let big = calibration_samples ~records ~txns in
  let small = calibration_samples ~records:50_000 ~txns:4_000 in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Calibration: stage costs (s = per_run*runs + per_a*a + per_b*b), \
            fitted on even samples of %dk-record streams" (records / 1000))
      ~columns:
        [ "model"; "samples"; "per_run ns"; "per_a ns"; "per_b ns";
          "held-out mean us"; "held-out err"; "held-out rms"; "50k mean us";
          "50k err" ]
  in
  let models =
    List.mapi
      (fun m (name, features) ->
        let even, odd =
          List.partition (fun (i, _) -> i land 1 = 0)
            (List.mapi (fun i s -> (i, s)) big.(m))
        in
        let coef = fit_nonneg (List.map snd even) in
        let model =
          { Calibration.per_run = coef.(0); per_a = coef.(1); per_b = coef.(2);
            held_out = 0.0; held_out_50k = 0.0 }
        in
        let bias, rms, mean = residual model (List.map snd odd) in
        let bias50, _, mean50 = residual model small.(m) in
        Table.add_row t
          [ name; i (List.length big.(m));
            Printf.sprintf "%.1f" (coef.(0) *. 1e9);
            Printf.sprintf "%.2f" (coef.(1) *. 1e9);
            Printf.sprintf "%.3f" (coef.(2) *. 1e9);
            Printf.sprintf "%.2f" (mean *. 1e6);
            Printf.sprintf "%+.1f%%" (bias *. 100.0);
            Printf.sprintf "%.0f%%" (rms *. 100.0);
            Printf.sprintf "%.2f" (mean50 *. 1e6);
            Printf.sprintf "%+.1f%%" (bias50 *. 100.0) ];
        (name, features, { model with held_out = bias; held_out_50k = bias50 }))
      calibration_models
  in
  Table.print t;
  Printf.printf "(features: %s; %.0fs)\n"
    (String.concat "; "
       (List.map (fun (n, f) -> Printf.sprintf "%s = %s" n f) calibration_models))
    (Clock.elapsed t0);
  let path = "lib/cluster/calibration.ml" in
  if not (Sys.file_exists path) then
    Printf.printf "%s not found (run from the repository root); not written\n" path
  else begin
    Out_channel.with_open_text path (fun oc ->
        Printf.fprintf oc "%s\nlet host = %S\n" calibration_prelude
          (host_description ());
        List.iter
          (fun (name, features, (m : Calibration.model)) ->
            Printf.fprintf oc
              "\n(* %s *)\nlet %s =\n  { per_run = %.4e; per_a = %.4e; per_b = %.4e; held_out = %.4f; held_out_50k = %.4f }\n"
              features name m.per_run m.per_a m.per_b m.held_out m.held_out_50k)
          models;
        Printf.fprintf oc "\nlet all = [ %s ]\n"
          (String.concat "; "
             (List.map (fun (n, _, _) -> Printf.sprintf "(%S, %s)" n n) models)));
    Printf.printf "wrote %s\n" path
  end

let calibration_json () =
  Json.Obj
    (("host", Json.String Calibration.host)
    :: List.map
         (fun (name, (m : Calibration.model)) ->
           ( name,
             Json.Obj
               [
                 ("per_run", Json.Float m.per_run);
                 ("per_a", Json.Float m.per_a);
                 ("per_b", Json.Float m.per_b);
                 ("held_out", Json.Float m.held_out);
                 ("held_out_50k", Json.Float m.held_out_50k);
               ] ))
         Calibration.all)

(* ---------------------------------------------------------------------- *)
(* Bechamel micro-benchmarks of the meld operator                           *)
(* ---------------------------------------------------------------------- *)

let micro () =
  print_endline "\n== Microbenchmarks (Bechamel): core operator costs ==";
  let open Bechamel in
  let wl =
    Ycsb.create
      { Ycsb.default with Ycsb.record_count = 100_000; payload_size = 64 }
  in
  let genesis = Ycsb.genesis wl in
  let make_draft snapshot pos =
    let e =
      Hyder_core.Executor.begin_txn ~snapshot_pos:pos ~snapshot ~server:0
        ~txn_seq:0 ~isolation:I.Serializable ()
    in
    Ycsb.apply (Ycsb.next_write_txn wl) e;
    Option.get (Hyder_core.Executor.finish e)
  in
  let test_exec =
    Test.make ~name:"execute+intend (10 ops)"
      (Staged.stage (fun () -> ignore (make_draft genesis (-1))))
  in
  let draft = make_draft genesis (-1) in
  let test_encode =
    Test.make ~name:"serialize intention"
      (Staged.stage (fun () -> ignore (Hyder_codec.Codec.encode draft)))
  in
  let bytes = Hyder_codec.Codec.encode draft in
  let resolve ~snapshot:_ ~key ~vn:_ =
    match Hyder_tree.Tree.find genesis key with
    | Some n -> n
    | None -> Hyder_tree.Node.empty
  in
  let test_decode =
    Test.make ~name:"deserialize intention"
      (Staged.stage (fun () ->
           ignore
             (Hyder_codec.Codec.decode ~pos:1 ~peer:genesis ~resolve bytes)))
  in
  let intention = I.assign ~pos:2 draft in
  let counters = Hyder_core.Counters.make_stage () in
  let alloc = Hyder_tree.Vn.Alloc.create ~thread:9 in
  let test_meld =
    Test.make ~name:"meld vs snapshot (graft-heavy)"
      (Staged.stage (fun () ->
           ignore
             (Hyder_core.Meld.meld ~mode:Hyder_core.Meld.Final
                ~members:[ 2 ] ~alloc ~counters ~intention:intention.I.root
                ~state:genesis ())))
  in
  let benchmark test =
    let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) () in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let res = Benchmark.all cfg instances test in
    let results =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false
           ~predictors:[| Measure.run |])
        Toolkit.Instance.monotonic_clock res
    in
    Hashtbl.iter
      (fun name ols ->
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> Printf.printf "  %-40s %10.2f ns/op\n" name est
        | _ -> ())
      results
  in
  List.iter benchmark [ test_exec; test_encode; test_decode; test_meld ]

(* ---------------------------------------------------------------------- *)
(* Driver                                                                   *)
(* ---------------------------------------------------------------------- *)

let figures =
  [
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("tango", tango);
    ("fig14", fig14);
    ("fig15", fig15);
    ("fig16", fig16);
    ("fig17", fig17);
    ("fig18", fig18_19);
    ("fig19", fig18_19);
    ("fig20", fig20);
    ("fig21", fig21_22);
    ("fig22", fig21_22);
    ("fig23", fig23_24);
    ("fig24", fig23_24);
    ("abl-premeld-threads", abl_premeld_threads);
    ("abl-group-size", abl_group_size);
    ("abl-admission", abl_admission);
    ("abl-index-size", abl_index_size);
    ("macro", macro);
    ("micro", micro);
    ("calibrate", calibrate);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let selected = ref [] in
  List.iter
    (fun a ->
      match a with
      | "--quick" -> scale := quick_scale
      | "--paper" -> scale := paper_scale
      | a when String.length a > 7 && String.sub a 0 7 = "--json=" ->
          json_path := Some (String.sub a 7 (String.length a - 7))
      | a when String.length a > 9 && String.sub a 0 9 = "--flight=" ->
          flight_path := Some (String.sub a 9 (String.length a - 9))
      | name when List.mem_assoc name figures ->
          if not (List.mem name !selected) then selected := name :: !selected
      | other ->
          Printf.eprintf "unknown argument %S (figures: %s)\n" other
            (String.concat " " (List.map fst figures));
          exit 2)
    args;
  let to_run =
    if !selected = [] then
      (* dedupe shared implementations *)
      [ "fig9"; "fig10"; "fig11"; "fig12"; "fig13"; "tango"; "fig14";
        "fig15"; "fig16"; "fig17"; "fig18"; "fig20"; "fig21"; "fig23";
        "abl-premeld-threads"; "abl-group-size"; "abl-admission";
        "abl-index-size"; "macro"; "micro" ]
    else List.rev !selected
  in
  Printf.printf "Hyder II benchmark harness — scale: %s\n" !scale.label;
  Printf.printf
    "(shapes, not absolute numbers, are the reproduction target; see \
     EXPERIMENTS.md)\n";
  List.iter
    (fun name ->
      print_newline ();
      Printf.printf "### %s\n%!" name;
      current_figure := name;
      (List.assoc name figures) ())
    to_run;
  match !json_path with
  | None -> ()
  | Some path ->
      let report =
        Json.Obj
          [
            ("harness", Json.String "hyder-bench");
            ("scale", Json.String !scale.label);
            ("calibration", calibration_json ());
            ( "figures_run",
              Json.List (List.map (fun n -> Json.String n) to_run) );
            ("runs", Json.List (List.rev !report_runs));
          ]
      in
      let oc = open_out path in
      Json.to_channel oc report;
      close_out oc;
      Printf.printf "\nwrote run report (%d cluster runs) to %s\n"
        (List.length !report_runs) path
