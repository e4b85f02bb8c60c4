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
module Metrics = Hyder_obs.Metrics
module Flight = Hyder_obs.Flight

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
          let rec loop () =
            if Engine.now eng < seconds then
              Corfu.append corfu block (fun _ -> loop ())
          in
          for _ = 1 to clients * threads_per_client do
            loop ()
          done;
          Engine.run ~until:seconds eng;
          let lat = Corfu.append_latencies corfu in
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

(* Record a deterministic wire stream for the replay.  The generator
   is wire-fed, like a real replica — it melds what it decodes — so the
   encoder's payload elisions and version references resolve on any
   replay of the same bytes.  Returns the (pos, bytes) list in log
   order. *)
let record_wire_stream ~seed ~txns ~n ~config ~genesis =
  let module Executor = Hyder_core.Executor in
  let module Codec = Hyder_codec.Codec in
  let rng = Hyder_util.Rng.create seed in
  let gen = Pipeline.create ~config ~genesis () in
  let history = ref [ (-1, genesis) ] (* newest first *) in
  let hist_len = ref 1 in
  let wires = ref [] in
  let next_pos = ref 0 in
  for txn_seq = 0 to txns - 1 do
    let lag = min (Hyder_util.Rng.int rng 80) (!hist_len - 1) in
    let snapshot_pos, snapshot = List.nth !history lag in
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
    match Executor.finish e with
    | None -> ()
    | Some draft ->
        next_pos := !next_pos + 2;
        let src = Codec.encode draft in
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
   once; the first [warm_txns] intentions are warmup — counters and
   metrics are snapshotted at the boundary and diffed at the end.
   Per-stage GC words come from the pipeline's Fcounter instruments
   (Gc.counters deltas around each stage's work).  The stream's mean
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
  let wires = record_wire_stream ~seed:271828L ~txns ~n ~config ~genesis in
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
  let fval snap name =
    match List.assoc_opt name snap with
    | Some (Metrics.Fcounter_v x) -> x
    | _ -> 0.0
  in
  let name = "seq" in
  let metrics = Metrics.create () in
  let flight_sink =
    match !flight_path with None -> None | Some path -> Some (open_out path)
  in
  let flight =
    match flight_sink with
    | None -> Flight.disabled
    | Some oc -> Flight.create ~label:name ~metrics ~sink:oc ()
  in
  let p = Pipeline.create ~config ~metrics ~flight ~genesis () in
  List.iter (fun b -> ignore (Pipeline.submit_wire_batch p b)) warm_batches;
  let c0 = Counters.copy (Pipeline.counters p) in
  let m0 = Metrics.snapshot metrics in
  let t0 = Clock.now () in
  let melded =
    List.fold_left
      (fun acc b -> acc + List.length (Pipeline.submit_wire_batch p b))
      0 meas_batches
    + List.length (Pipeline.flush p)
  in
  let wall = Clock.elapsed t0 in
  let c1 = Pipeline.counters p in
  let gc = Metrics.diff ~base:m0 (Metrics.snapshot metrics) in
  Flight.export_percentiles flight;
  (match (flight_sink, !flight_path) with
  | Some oc, Some path ->
      close_out oc;
      Printf.printf "flight records -> %s\n" path
  | _ -> ());
  let meldedf = float_of_int melded in
  let sdelta f = f c1 -. f c0 in
  let ds = sdelta (fun c -> c.Counters.deserialize.Counters.seconds) in
  let pm = sdelta (fun c -> c.Counters.premeld.Counters.seconds) in
  let gm = sdelta (fun c -> c.Counters.group_meld.Counters.seconds) in
  let fm = sdelta (fun c -> c.Counters.final_meld.Counters.seconds) in
  let driver_s = ds +. pm +. gm +. fm in
  let melds_per_s = meldedf /. wall in
  let fm_ns = fm /. meldedf *. 1e9 in
  let driver_us = driver_s /. meldedf *. 1e6 in
  let wire_bytes_per_txn = float_of_int wire_bytes /. float_of_int count in
  let per_txn name = fval gc name /. meldedf in
  let fm_minor = per_txn "pipeline_fm_gc_minor_words" in
  let ds_minor = per_txn "pipeline_ds_gc_minor_words" in
  let mz_minor = per_txn "pipeline_mz_gc_minor_words" in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Macro: %d intentions (last %d measured, warmup excluded) — \
            melds/s, fm critical path and GC words per txn"
           count (count - warm_txns))
      ~columns:
        [ "runtime"; "melds/s"; "fm ns/txn"; "driver us/int";
          "ds minor w/txn"; "mz minor w/txn"; "fm minor w/txn"; "wire B/txn" ]
  in
  Table.add_row t
    [
      name;
      Printf.sprintf "%.0f" melds_per_s;
      Printf.sprintf "%.0f" fm_ns;
      Printf.sprintf "%.2f" driver_us;
      Printf.sprintf "%.1f" ds_minor;
      Printf.sprintf "%.1f" mz_minor;
      Printf.sprintf "%.1f" fm_minor;
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
          (* ds minor words are gated per decoded node: a view's index
             grows with the intention, heap nodes built in ds would add a
             block per node *)
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
                ( "ds_promoted",
                  Json.Float (per_txn "pipeline_ds_gc_promoted_words") );
                ("pm_minor", Json.Float (per_txn "pipeline_pm_gc_minor_words"));
                ( "pm_promoted",
                  Json.Float (per_txn "pipeline_pm_gc_promoted_words") );
                ("gm_minor", Json.Float (per_txn "pipeline_gm_gc_minor_words"));
                ( "gm_promoted",
                  Json.Float (per_txn "pipeline_gm_gc_promoted_words") );
                ("fm_minor", Json.Float fm_minor);
                ( "fm_promoted",
                  Json.Float (per_txn "pipeline_fm_gc_promoted_words") );
                ("mz_minor", Json.Float mz_minor);
              ] );
        ]
      :: !report_runs
  end;
  Table.print t;
  Printf.printf
    "(fm minor w/txn = minor-heap words allocated by final meld per \
     measured intention; wire B/txn = mean encoded size over all %d \
     intentions)\n"
    count

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
             (Hyder_codec.Codec.decode_lazy ~pos:1 ~peer:genesis ~resolve
                bytes)))
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
