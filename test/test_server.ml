(* Multi-server integration: the architecture's core claim.

   Several servers share one log.  Each runs its own meld pipeline over the
   same block sequence.  Whatever the interleaving of transaction execution
   (including stale snapshots, because servers only advance as they observe
   blocks), all servers must make identical commit/abort decisions and
   converge to PHYSICALLY identical states (Section 3.4). *)

open Hyder_tree
module Server = Hyder_core.Server
module Executor = Hyder_core.Executor
module Pipeline = Hyder_core.Pipeline
module Mem_log = Hyder_log.Mem_log
module Rng = Hyder_util.Rng
module Replica = Hyder_cluster.Replica

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A tiny deployment: [n] servers, one shared in-memory log, and a pump
   that delivers appended blocks to every server in log order. *)
type deployment = {
  servers : Server.t array;
  log : Mem_log.t;
  mutable delivered : int;
  decisions : (int * int, bool) Hashtbl.t;  (* (server, txn_seq) -> committed *)
}

let deploy ?(config = Pipeline.plain) n ~genesis_size =
  let genesis = Helpers.genesis ~gap:10 genesis_size in
  let servers =
    Array.init n (fun server_id ->
        Server.create ~config ~block_size:512 ~server_id ~genesis ())
  in
  let d =
    {
      servers;
      log = Mem_log.create ~block_size:512 ();
      delivered = 0;
      decisions = Hashtbl.create 64;
    }
  in
  Array.iter
    (fun s ->
      Server.on_decision s (fun x ->
          Hashtbl.replace d.decisions
            (Server.server_id s, x.Pipeline.txn_seq)
            x.Pipeline.committed))
    servers;
  d

let accepted = function
  | Server.Accepted ds -> ds
  | Server.Duplicate -> Alcotest.fail "unexpected duplicate"
  | Server.Rejected -> Alcotest.fail "unexpected rejection"

let append_blocks d blocks =
  List.iter (fun b -> ignore (Mem_log.append d.log b)) blocks

(* Deliver every not-yet-delivered block to every server; decisions must
   agree across servers. *)
let pump d =
  let len = Mem_log.length d.log in
  for pos = d.delivered to len - 1 do
    let block = Mem_log.read d.log pos in
    let all =
      Array.map
        (fun s -> accepted (Server.observe_block s ~pos block))
        d.servers
    in
    (* Every server sees the same decisions, in the same order. *)
    Array.iter
      (fun ds ->
        let strip =
          List.map
            (fun (x : Pipeline.decision) ->
              (x.Pipeline.seq, x.Pipeline.pos, x.Pipeline.committed))
            ds
        in
        let strip0 =
          List.map
            (fun (x : Pipeline.decision) ->
              (x.Pipeline.seq, x.Pipeline.pos, x.Pipeline.committed))
            all.(0)
        in
        check "identical decisions across servers" true (strip = strip0))
      all
  done;
  d.delivered <- len

let assert_converged d =
  let _, _, s0 = Server.lcs d.servers.(0) in
  Array.iter
    (fun s ->
      let _, _, t = Server.lcs s in
      check "physically identical LCS" true (Tree.physically_equal s0 t))
    d.servers

let test_two_servers_sequential () =
  let d = deploy 2 ~genesis_size:100 in
  for i = 0 to 19 do
    let s = d.servers.(i mod 2) in
    let _, r = Server.txn s (fun e -> Executor.write e (i * 10) "x") in
    (match r with
    | Some (_, blocks) -> append_blocks d blocks
    | None -> Alcotest.fail "expected blocks");
    pump d
  done;
  assert_converged d;
  check_int "all delivered decisions" 20 (Hashtbl.length d.decisions);
  Hashtbl.iter
    (fun _ committed -> check "all commit" true committed)
    d.decisions

let test_conflicting_concurrent_servers () =
  let d = deploy 3 ~genesis_size:100 in
  (* All three servers update the same key before any block circulates:
     genuine cross-server conflict; exactly one can win. *)
  let pending =
    Array.to_list
      (Array.map
         (fun s ->
           let _, r =
             Server.txn s (fun e ->
                 ignore (Executor.read e 50);
                 Executor.write e 50 (Printf.sprintf "from-%d" (Server.server_id s)))
           in
           Option.get r)
         d.servers)
  in
  List.iter (fun (_, blocks) -> append_blocks d blocks) pending;
  pump d;
  assert_converged d;
  let outcomes = Hashtbl.fold (fun _ o acc -> o :: acc) d.decisions [] in
  check_int "three decisions" 3 (List.length outcomes);
  check_int "exactly one winner" 1
    (List.length (List.filter Fun.id outcomes));
  let _, _, lcs = Server.lcs d.servers.(0) in
  match Tree.lookup lcs 50 with
  | Some (Payload.Value v) ->
      check "winner's value installed" true
        (String.length v > 5 && String.sub v 0 5 = "from-")
  | _ -> Alcotest.fail "key 50 lost"

let test_random_multi_server_convergence () =
  List.iter
    (fun config ->
      let d = deploy ~config 4 ~genesis_size:200 in
      let rng = Rng.create 77L in
      let buffered = ref [] in
      for round = 1 to 120 do
        (* each round: 1-4 concurrent txns on random servers, then blocks hit
           the log in a random order of transactions (blocks of one txn stay
           ordered), and only sometimes get pumped (so snapshots go stale) *)
        let txns = 1 + Rng.int rng 4 in
        for _ = 1 to txns do
          let s = d.servers.(Rng.int rng 4) in
          let _, r =
            Server.txn s
              ~isolation:
                (if Rng.int rng 4 = 0 then
                   Hyder_codec.Intention.Snapshot_isolation
                 else Hyder_codec.Intention.Serializable)
              (fun e ->
                for _ = 1 to 1 + Rng.int rng 3 do
                  let k = 10 * Rng.int rng 250 in
                  if Rng.bool rng then ignore (Executor.read e k)
                  else Executor.write e k (Printf.sprintf "r%d" round)
                done;
                (* guarantee a write so the txn is logged *)
                Executor.write e (10 * Rng.int rng 250) "w")
          in
          match r with
          | Some (_, blocks) -> buffered := blocks :: !buffered
          | None -> ()
        done;
        (* shuffle transaction order into the log *)
        let batch = Array.of_list !buffered in
        buffered := [];
        Rng.shuffle rng batch;
        Array.iter (fun blocks -> append_blocks d blocks) batch;
        if Rng.int rng 3 <> 0 then pump d
      done;
      pump d;
      assert_converged d;
      (* sanity: a decent number of both outcomes occurred *)
      let outcomes = Hashtbl.fold (fun _ o acc -> o :: acc) d.decisions [] in
      check "many decisions" true (List.length outcomes > 200))
    [ Pipeline.plain; Pipeline.with_premeld; Pipeline.with_both ]

let test_interleaved_multiblock_intentions () =
  (* Big payloads force multi-block intentions; blocks from different
     servers interleave in the log and must reassemble correctly. *)
  let d = deploy 2 ~genesis_size:50 in
  let big = String.make 900 'p' in
  let r0 =
    snd (Server.txn d.servers.(0) (fun e -> Executor.write e 100 big))
  and r1 =
    snd (Server.txn d.servers.(1) (fun e -> Executor.write e 200 big))
  in
  let b0 = snd (Option.get r0) and b1 = snd (Option.get r1) in
  check "multi-block" true (List.length b0 > 1 && List.length b1 > 1);
  (* interleave block streams *)
  let rec weave a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | x :: xs, y :: ys -> x :: y :: weave xs ys
  in
  append_blocks d (weave b0 b1);
  pump d;
  assert_converged d;
  let _, _, lcs = Server.lcs d.servers.(0) in
  check "both inserts present" true (Tree.mem lcs 100 && Tree.mem lcs 200)

(* ------------------------------------------------------------------ *)
(* Delivery, recovery and corruption: one observer, one log             *)
(* ------------------------------------------------------------------ *)

(* What an observer ends with: every decision in the order it became
   final, the tree digest and the counters digest. *)
let outcome s rev_ds =
  let ds = List.rev_append rev_ds (Server.flush s) in
  let _, _, tree = Server.lcs s in
  (ds, Tree.digest tree, Replica.counters_digest (Server.counters s))

let same_outcome name (ds, tree, counters) (ds', tree', counters') =
  check (name ^ ": decisions") true (ds = ds');
  Alcotest.(check string) (name ^ ": tree digest") tree tree';
  Alcotest.(check string) (name ^ ": counters digest") counters counters'

let observer ~config genesis =
  Server.create ~config ~block_size:512 ~server_id:99 ~genesis ()

(* Feed one block that must be accepted, its decisions onto [rev_ds]. *)
let feed_one s ~pos block rev_ds =
  List.rev_append (accepted (Server.observe_block s ~pos block)) rev_ds

(* Feed positions [from, until) in order onto [rev_ds]. *)
let feed s log ~from ~until rev_ds =
  let acc = ref rev_ds in
  for pos = from to until - 1 do
    acc := feed_one s ~pos log.(pos) !acc
  done;
  !acc

let in_order ~config genesis log =
  let s = observer ~config genesis in
  outcome s (feed s log ~from:0 ~until:(Array.length log) [])

(* A seeded multi-server history whose intentions partly span several
   blocks; returns the genesis and the log. *)
let seeded_log ~config =
  let d = deploy ~config 3 ~genesis_size:200 in
  let rng = Rng.create 2024L in
  let intentions = ref 0 in
  for round = 1 to 40 do
    let batch =
      List.filter_map
        (fun _ ->
          let s = d.servers.(Rng.int rng 3) in
          snd
            (Server.txn s (fun e ->
                 for _ = 1 to 1 + Rng.int rng 3 do
                   let k = 10 * Rng.int rng 220 in
                   if Rng.bool rng then ignore (Executor.read e k)
                   else Executor.write e k (Printf.sprintf "r%d" round)
                 done;
                 let big = Rng.int rng 3 = 0 in
                 Executor.write e
                   (10 * Rng.int rng 220)
                   (if big then String.make 700 'b' else "w"))))
        (List.init (1 + Rng.int rng 3) Fun.id)
    in
    List.iter
      (fun (_, blocks) ->
        incr intentions;
        append_blocks d blocks)
      batch;
    if Rng.int rng 3 <> 0 then pump d
  done;
  pump d;
  let log = Array.init (Mem_log.length d.log) (Mem_log.read d.log) in
  check "some intentions span several blocks" true
    (Array.length log > !intentions);
  (Helpers.genesis ~gap:10 200, log)

let test_shuffled_delivery_with_duplicates () =
  List.iter
    (fun config ->
      let genesis, log = seeded_log ~config in
      let n = Array.length log in
      let rng = Rng.create 7L in
      let deliveries =
        Array.of_list
          (List.init n Fun.id
          @ List.filter (fun _ -> Rng.int rng 3 = 0) (List.init n Fun.id))
      in
      Rng.shuffle rng deliveries;
      let s = observer ~config genesis in
      let rev_ds = ref [] and dups = ref 0 in
      Array.iter
        (fun pos ->
          match Server.observe_block s ~pos log.(pos) with
          | Server.Accepted ds -> rev_ds := List.rev_append ds !rev_ds
          | Server.Duplicate -> incr dups
          | Server.Rejected -> Alcotest.fail "clean block rejected")
        deliveries;
      check_int "every duplicate reported" (Array.length deliveries - n) !dups;
      check_int "fed to the end" n (Server.next_pos s);
      check_int "nothing left waiting" 0 (Server.buffered s);
      same_outcome "shuffled = in order" (in_order ~config genesis log)
        (outcome s !rev_ds))
    [ Pipeline.plain; Pipeline.with_premeld; Pipeline.with_both ]

(* Two servers' three-block intentions, interleaved: a0 b0 a1 b1 a2 b2. *)
let interleaved_log () =
  let d = deploy 2 ~genesis_size:50 in
  let big = String.make 900 'p' in
  let blocks s k =
    snd (Option.get (snd (Server.txn s (fun e -> Executor.write e k big))))
  in
  let b0 = blocks d.servers.(0) 100 and b1 = blocks d.servers.(1) 200 in
  check_int "three blocks each" 6 (List.length b0 + List.length b1);
  ( Helpers.genesis ~gap:10 50,
    Array.of_list (List.concat (List.map2 (fun x y -> [ x; y ]) b0 b1)) )

(* Crash after every position, restore from the checkpoint taken there
   (twice, from the one checkpoint) and replay the rest: the partials
   carried in the checkpoint make intentions straddling it exact. *)
let test_restore_at_every_boundary () =
  let genesis, log = interleaved_log () in
  let n = Array.length log in
  List.iter
    (fun (config, boundaries) ->
      let reference = in_order ~config genesis log in
      let restored = ref 0 in
      for crash_after = 0 to n - 1 do
        let s = observer ~config genesis in
        let before = feed s log ~from:0 ~until:(crash_after + 1) [] in
        match Server.checkpoint s with
        | None -> ()
        | Some c ->
            incr restored;
            check_int "replay starts after the crash" (crash_after + 1)
              (Server.replay_from c);
            for _ = 1 to 2 do
              let s' = Server.restore ~config ~block_size:512 ~server_id:99 c in
              let after =
                feed s' log ~from:(Server.replay_from c) ~until:n before
              in
              same_outcome
                (Printf.sprintf "restored after %d" crash_after)
                reference (outcome s' after)
            done
      done;
      check_int "group boundaries" boundaries !restored)
    [ (Pipeline.plain, 6); (Pipeline.with_both, 5) ]

let flip_bit rng block =
  let b = Bytes.of_string block in
  let i = Rng.int rng (Bytes.length b) in
  let flipped = Char.code (Bytes.get b i) lxor (1 lsl Rng.int rng 8) in
  Bytes.set b i (Char.chr flipped);
  Bytes.to_string b

(* Before each good block arrives: a bit-flipped copy of it, a truncated
   copy of it, a bit-flipped copy of the next block, and a CRC-valid
   block from the same server whose fragment is out of order.  Each is
   rejected and leaves no state behind. *)
let test_corrupt_blocks_rejected () =
  let genesis, log = interleaved_log () in
  let n = Array.length log in
  List.iter
    (fun config ->
      let rng = Rng.create 5L in
      let s = observer ~config genesis in
      let rev_ds = ref [] in
      let rejected ~pos block =
        let next = Server.next_pos s in
        check "rejected" true
          (Server.observe_block s ~pos block = Server.Rejected);
        check_int "next_pos unmoved" next (Server.next_pos s);
        check_int "nothing buffered" 0 (Server.buffered s)
      in
      for pos = 0 to n - 1 do
        rejected ~pos (flip_bit rng log.(pos));
        rejected ~pos (String.sub log.(pos) 0 (String.length log.(pos) / 2));
        if pos + 1 < n then
          rejected ~pos:(pos + 1) (flip_bit rng log.(pos + 1));
        rejected ~pos log.(if pos + 2 < n then pos + 2 else pos - 4);
        rev_ds := feed_one s ~pos log.(pos) !rev_ds
      done;
      same_outcome "corrupt copies change nothing"
        (in_order ~config genesis log)
        (outcome s !rev_ds))
    [ Pipeline.plain; Pipeline.with_both ]

(* [Server.txn] encodes through the server's own encoder, so a write
   transaction allocates nothing directly on the major heap beyond noise:
   a fresh 8 KB encoder buffer per call would be about 1,030 words.
   Direct-major words are [Gc.counters]' major words minus its promoted
   words. *)
let test_txn_reuses_encoder () =
  let genesis = Helpers.genesis ~gap:10 100 in
  let s = Server.create ~server_id:0 ~genesis () in
  let calls = 200 in
  let _, p0, m0 = Gc.counters () in
  for i = 1 to calls do
    match Server.txn s (fun e -> Executor.write e (i mod 100 * 10) "x") with
    | _, Some (_, blocks) -> ignore (Sys.opaque_identity blocks)
    | _, None -> Alcotest.fail "expected blocks"
  done;
  let _, p1, m1 = Gc.counters () in
  let per_call = (m1 -. m0 -. (p1 -. p0)) /. float_of_int calls in
  check
    (Printf.sprintf "direct-major words per txn %.1f < 100" per_call)
    true (per_call < 100.)

let () =
  Alcotest.run "server"
    [
      ( "multi-server",
        [
          Alcotest.test_case "sequential convergence" `Quick
            test_two_servers_sequential;
          Alcotest.test_case "conflicting servers" `Quick
            test_conflicting_concurrent_servers;
          Alcotest.test_case "random convergence" `Quick
            test_random_multi_server_convergence;
          Alcotest.test_case "interleaved multiblock" `Quick
            test_interleaved_multiblock_intentions;
          Alcotest.test_case "txn reuses the server's encoder" `Quick
            test_txn_reuses_encoder;
        ] );
      ( "one log",
        [
          Alcotest.test_case "shuffled delivery with duplicates" `Quick
            test_shuffled_delivery_with_duplicates;
          Alcotest.test_case "restore at every group boundary" `Quick
            test_restore_at_every_boundary;
          Alcotest.test_case "corrupt blocks rejected" `Quick
            test_corrupt_blocks_rejected;
        ] );
    ]
