(* Scale-out without partitioning: several servers, one shared log.

   Each server executes transactions against its own cached state and runs
   its own meld pipeline over the shared block sequence.  No server ever
   talks to another — the log's total order is the only coordination — yet
   all servers make identical commit/abort decisions and converge to
   PHYSICALLY identical states, ephemeral node identities included
   (Section 3.4 of the paper).

   Run with: dune exec examples/multi_server.exe
*)

open Hyder_tree
module Server = Hyder_core.Server
module Executor = Hyder_core.Executor
module Pipeline = Hyder_core.Pipeline
module Mem_log = Hyder_log.Mem_log
module Rng = Hyder_util.Rng

let () =
  let n_servers = 3 in
  let genesis =
    Tree.of_sorted_array
      (Array.init 500 (fun k -> (k * 2, Payload.value (Printf.sprintf "init-%d" (k * 2)))))
  in
  (* Every server runs the optimized pipeline (premeld + group meld).  At
     this toy scale the log lag is a handful of intentions, so use a small
     premeld distance; Algorithm 1 skips premeld whenever the designated
     state predates the transaction's snapshot. *)
  let config =
    {
      Pipeline.premeld =
        Some { Hyder_core.Premeld.threads = 2; distance = 1 };
      group_size = 2;
    }
  in
  let servers =
    Array.init n_servers (fun server_id ->
        Server.create ~config ~server_id ~genesis ())
  in
  let log = Mem_log.create () in
  let delivered = ref 0 in
  let outcomes = Hashtbl.create 64 in
  Array.iter
    (fun s ->
      Server.on_decision s (fun d ->
          Hashtbl.replace outcomes
            (Server.server_id s, d.Pipeline.txn_seq)
            d.Pipeline.committed))
    servers;

  (* Deliver all new log blocks to every server (the paper's broadcast). *)
  let pump () =
    for pos = !delivered to Mem_log.length log - 1 do
      let block = Mem_log.read log pos in
      Array.iter (fun s -> ignore (Server.observe_block s ~pos block)) servers
    done;
    delivered := Mem_log.length log
  in

  let rng = Rng.create 31337L in
  let submitted = ref 0 in
  for round = 1 to 200 do
    (* A few servers issue transactions concurrently — before any of this
       round's blocks circulate, so their snapshots genuinely race. *)
    let batch =
      List.filter_map
        (fun _ ->
          let s = servers.(Rng.int rng n_servers) in
          let _, r =
            Server.txn s (fun e ->
                let k = 2 * Rng.int rng 600 in
                ignore (Executor.read e k);
                Executor.write e k (Printf.sprintf "r%d-s%d" round (Server.server_id s)))
          in
          r)
        (List.init (1 + Rng.int rng 3) Fun.id)
    in
    List.iter
      (fun (_, blocks) ->
        incr submitted;
        List.iter (fun b -> ignore (Mem_log.append log b)) blocks)
      batch;
    (* Sometimes delay delivery so servers run ahead on stale state. *)
    if Rng.int rng 4 = 0 then pump ()
  done;
  pump ();

  (* Convergence check: all servers, one state, bit for bit. *)
  let _, pos0, s0 = Server.lcs servers.(0) in
  let all_equal =
    Array.for_all
      (fun s ->
        let _, p, t = Server.lcs s in
        p = pos0 && Tree.physically_equal s0 t)
      servers
  in
  let commits =
    Hashtbl.fold
      (fun _ committed acc -> if committed then acc + 1 else acc)
      outcomes 0
  in
  Printf.printf "servers: %d; transactions submitted: %d\n" n_servers !submitted;
  Printf.printf "decisions delivered to issuers: %d (%d committed, %d aborted)\n"
    (Hashtbl.length outcomes) commits
    (Hashtbl.length outcomes - commits);
  Printf.printf "all servers converged to a physically identical state: %b\n"
    all_equal;
  let c = Server.counters servers.(0) in
  let pm_total = Hyder_core.Counters.premeld_total c in
  Printf.printf
    "per-server pipeline work: ds %d nodes, pm %d, gm %d, fm %d (premeld \
     moved %.0f%% of meld off the critical path)\n"
    c.Hyder_core.Counters.deserialize.Hyder_core.Counters.nodes_visited
    pm_total.Hyder_core.Counters.nodes_visited
    c.Hyder_core.Counters.group_meld.Hyder_core.Counters.nodes_visited
    c.Hyder_core.Counters.final_meld.Hyder_core.Counters.nodes_visited
    (let pm = float_of_int pm_total.Hyder_core.Counters.nodes_visited
     and fm =
       float_of_int c.Hyder_core.Counters.final_meld.Hyder_core.Counters.nodes_visited
     in
     if pm +. fm = 0.0 then 0.0 else 100.0 *. pm /. (pm +. fm))
