open Hyder_tree
module I = Hyder_codec.Intention

let owner = I.draft_owner

let make_fresh () =
  let c = ref 0 in
  fun () ->
    incr c;
    !c

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_of_sorted_basic () =
  let t = Helpers.genesis 1000 in
  Helpers.check_tree_valid "genesis" t;
  check_int "size" 1000 (Tree.size t);
  check_int "live" 1000 (Tree.live_size t);
  for k = 0 to 999 do
    Alcotest.(check string)
      "lookup" ("v" ^ string_of_int k)
      (Helpers.value_exn (Tree.lookup t k))
  done;
  check "absent" true (Tree.lookup t 1000 = None)

let test_of_sorted_rejects_unsorted () =
  Alcotest.check_raises "unsorted" (Invalid_argument
      "Tree.of_sorted_array: keys must be strictly increasing") (fun () ->
      ignore (Tree.of_sorted_array [| (2, Helpers.payload 2); (1, Helpers.payload 1) |]))

let test_depth_logarithmic () =
  let t = Helpers.genesis 10000 in
  let d = Tree.depth t in
  (* Expected treap depth ~ 2.99 * ln n ≈ 27; allow generous slack. *)
  check "depth sane" true (d < 60)

let test_canonical_shape_any_insertion_order () =
  let keys = Array.init 200 (fun i -> (i * 37) + 11) in
  let build order_seed =
    let rng = Hyder_util.Rng.create (Int64.of_int order_seed) in
    let ks = Array.copy keys in
    Hyder_util.Rng.shuffle rng ks;
    Array.fold_left
      (fun t k ->
        Tree.upsert t ~owner ~fresh:(make_fresh ()) k (Helpers.payload k))
      Tree.empty ks
  in
  let a = build 1 and b = build 2 in
  Alcotest.(check string) "same shape" (Helpers.shape a) (Helpers.shape b);
  let direct =
    Tree.of_sorted_array
      (Array.map (fun k -> (k, Helpers.payload k)) (Array.copy keys |> fun a ->
        Array.sort compare a; a))
  in
  Alcotest.(check string) "matches of_sorted" (Helpers.shape direct) (Helpers.shape a)

let test_upsert_update () =
  let t0 = Helpers.genesis 100 in
  let fresh = make_fresh () in
  let t1 = Tree.upsert t0 ~owner ~fresh 42 (Payload.value "new") in
  Helpers.check_tree_valid "updated" t1;
  Alcotest.(check string) "new value" "new" (Helpers.value_exn (Tree.lookup t1 42));
  (* The snapshot is untouched (copy-on-write). *)
  Alcotest.(check string) "old value" "v42" (Helpers.value_exn (Tree.lookup t0 42));
  check_int "same size" 100 (Tree.size t1);
  (* The updated node is a draft with source metadata. *)
  let n = Option.get (Tree.find t1 42) in
  check "altered" true (Node.altered n);
  check "owner" true (Node.owner n = owner);
  let src = Option.get (Tree.find t0 42) in
  check "ssv points at source" true (Node.ssv_equals n src);
  check "scv is source content" true (Node.scv_equals n src)

let test_upsert_insert () =
  let t0 = Helpers.genesis ~gap:10 100 in
  let fresh = make_fresh () in
  let t1 = Tree.upsert t0 ~owner ~fresh 55 (Payload.value "inserted") in
  Helpers.check_tree_valid "inserted" t1;
  check_int "size +1" 1001 (Tree.size t1 + 1000 - Tree.size t0 + 1000 - 1000);
  check_int "size is 101" 101 (Tree.size t1);
  Alcotest.(check string) "insert visible" "inserted"
    (Helpers.value_exn (Tree.lookup t1 55));
  let n = Option.get (Tree.find t1 55) in
  check "insert has no ssv" false (Node.has_ssv n);
  check "insert altered" true (Node.altered n)

let test_delete_is_tombstone () =
  let t0 = Helpers.genesis 50 in
  let fresh = make_fresh () in
  let t1 = Tree.upsert t0 ~owner ~fresh 7 Payload.tombstone in
  check "gone" true (Tree.lookup t1 7 = None);
  check "not a member" false (Tree.mem t1 7);
  check_int "node remains" 50 (Tree.size t1);
  check_int "live shrinks" 49 (Tree.live_size t1);
  (* Re-inserting the key is an update of the tombstone node. *)
  let t2 = Tree.upsert t1 ~owner ~fresh 7 (Payload.value "back") in
  Alcotest.(check string) "back" "back" (Helpers.value_exn (Tree.lookup t2 7));
  let n = Option.get (Tree.find t2 7) in
  check "revival keeps source chain" true (Node.has_ssv n)

let test_touch_read_marks () =
  let t0 = Helpers.genesis 100 in
  let fresh = make_fresh () in
  let t1, v = Tree.read t0 ~owner ~fresh 10 in
  check "read payload" true (v = Some (Helpers.payload 10));
  let n = Option.get (Tree.find t1 10) in
  check "dep content" true (Node.depends_on_content n);
  check "not altered" false (Node.altered n);
  check "payload kept" true (Payload.equal n.Node.payload (Helpers.payload 10));
  (* Marking again is a no-op (physically). *)
  let t2, _ = Tree.read t1 ~owner ~fresh 10 in
  check "idempotent" true (t2 == t1)

let test_touch_read_own_write_noop () =
  let t0 = Helpers.genesis 100 in
  let fresh = make_fresh () in
  let t1 = Tree.upsert t0 ~owner ~fresh 10 (Payload.value "mine") in
  let t2, v = Tree.read t1 ~owner ~fresh 10 in
  check "no-op" true (t2 == t1);
  check "own write read" true (v = Some (Payload.value "mine"))

let test_touch_read_absent_guards_structure () =
  let t0 = Helpers.genesis ~gap:10 100 in
  let fresh = make_fresh () in
  let t1, v = Tree.read t0 ~owner ~fresh 55 in
  check "absent reads None" true (v = None);
  (* Some node on the search path must carry the structural guard. *)
  let guarded = ref 0 in
  Tree.iter t1 (fun n -> if Node.depends_on_structure n then incr guarded);
  check_int "one guard" 1 !guarded

let test_touch_range_marks_in_range () =
  let t0 = Helpers.genesis 100 in
  let fresh = make_fresh () in
  let t1 = Tree.touch_range t0 ~owner ~fresh ~lo:10 ~hi:20 in
  let marked = ref [] in
  Tree.iter t1 (fun n ->
      if Node.depends_on_structure n then marked := n.Node.key :: !marked);
  List.iter
    (fun k -> check (Printf.sprintf "key %d marked" k) true (List.mem k !marked))
    [ 10; 11; 15; 20 ];
  check "nothing below lo" false (List.exists (fun k -> k < 10) !marked);
  check "nothing above hi" false (List.exists (fun k -> k > 20) !marked)

let test_touch_range_empty_guards_neighbours () =
  let t0 = Helpers.genesis ~gap:100 10 in
  let fresh = make_fresh () in
  (* Range (150, 180) is empty; neighbours 100 and 200 must be guarded. *)
  let t1 = Tree.touch_range t0 ~owner ~fresh ~lo:150 ~hi:180 in
  let marked = ref [] in
  Tree.iter t1 (fun n ->
      if Node.depends_on_structure n then marked := n.Node.key :: !marked);
  check "pred guarded" true (List.mem 100 !marked);
  check "succ guarded" true (List.mem 200 !marked)

let test_pred_succ () =
  let t = Helpers.genesis ~gap:10 10 in
  check_int "pred" 40 (Option.get (Tree.pred t 45)).Node.key;
  check_int "pred exact" 40 (Option.get (Tree.pred t 50)).Node.key;
  check "pred none" true (Tree.pred t 0 = None);
  check_int "succ" 50 (Option.get (Tree.succ t 45)).Node.key;
  check "succ none" true (Tree.succ t 90 = None)

let test_range_items () =
  let t = Helpers.genesis ~gap:10 20 in
  let items = Tree.range_items t ~lo:25 ~hi:62 in
  Alcotest.(check (list int)) "keys" [ 30; 40; 50; 60 ] (List.map fst items);
  (* Tombstoned key drops out of the scan. *)
  let fresh = make_fresh () in
  let t2 = Tree.upsert t ~owner ~fresh 40 Payload.tombstone in
  let items2 = Tree.range_items t2 ~lo:25 ~hi:62 in
  Alcotest.(check (list int)) "keys after delete" [ 30; 50; 60 ]
    (List.map fst items2)

let test_path_length () =
  let t = Helpers.genesis 1024 in
  let total = ref 0 in
  for k = 0 to 1023 do
    total := !total + Tree.path_length t k
  done;
  let avg = float_of_int !total /. 1024.0 in
  check "avg path logarithmic" true (avg < 30.0 && avg > 5.0)

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                 *)
(* ------------------------------------------------------------------ *)

module KeyMap = Map.Make (Int)

let apply_op (tree, model, fresh) op =
  match op with
  | `Upsert (k, v) ->
      ( Tree.upsert tree ~owner ~fresh k (Payload.value v),
        KeyMap.add k v model,
        fresh )
  | `Delete k ->
      (Tree.upsert tree ~owner ~fresh k Payload.tombstone,
       KeyMap.remove k model, fresh)

let op_gen =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun k v -> `Upsert (k, string_of_int v)) (int_bound 400) nat;
        map (fun k -> `Delete k) (int_bound 400);
      ])

let prop_model_agreement =
  QCheck2.Test.make ~name:"treap agrees with Map model" ~count:300
    QCheck2.Gen.(list_size (int_range 1 120) op_gen)
    (fun ops ->
      let fresh = make_fresh () in
      let tree, model, _ =
        List.fold_left apply_op (Helpers.genesis ~gap:7 30,
          (let m = ref KeyMap.empty in
           for i = 0 to 29 do m := KeyMap.add (i * 7) ("v" ^ string_of_int (i * 7)) !m done;
           !m), fresh) ops
      in
      (match Tree.validate tree with
      | Ok () -> ()
      | Error e -> QCheck2.Test.fail_reportf "invalid: %s" e);
      KeyMap.for_all
        (fun k v ->
          match Tree.lookup tree k with
          | Some (Payload.Value s) -> String.equal s v
          | Some Payload.Tombstone | None -> false)
        model
      && List.for_all
           (fun (k, _) -> KeyMap.mem k model)
           (Tree.to_alist tree))

let prop_shape_canonical =
  QCheck2.Test.make ~name:"shape independent of insertion order" ~count:200
    QCheck2.Gen.(
      pair (list_size (int_range 1 60) (int_bound 1000)) (int_bound 10000))
    (fun (keys, seed) ->
      let uniq = List.sort_uniq compare keys in
      let fresh = make_fresh () in
      let a =
        List.fold_left
          (fun t k -> Tree.upsert t ~owner ~fresh k (Helpers.payload k))
          Tree.empty uniq
      in
      let shuffled = Array.of_list uniq in
      Hyder_util.Rng.shuffle (Hyder_util.Rng.create (Int64.of_int seed)) shuffled;
      let b =
        Array.fold_left
          (fun t k -> Tree.upsert t ~owner ~fresh k (Helpers.payload k))
          Tree.empty shuffled
      in
      String.equal (Helpers.shape a) (Helpers.shape b))

(* [Tree.read] returns what [lookup] returns on the tree it was given,
   over snapshots mixed with own writes, tombstones and absent keys, and
   leaves a valid treap whose read key carries the content guard. *)
let prop_read_is_lookup =
  QCheck2.Test.make ~name:"read payload = lookup, one descent" ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 30) (pair (int_bound 120) bool))
        (list_size (int_range 1 20) (int_bound 130)))
    (fun (edits, reads) ->
      let fresh = make_fresh () in
      let t =
        List.fold_left
          (fun t (k, del) ->
            Tree.upsert t ~owner ~fresh k
              (if del then Payload.tombstone else Payload.value "w"))
          (Helpers.genesis ~gap:2 60) edits
      in
      List.fold_left
        (fun t k ->
          let t', v = Tree.read t ~owner ~fresh k in
          if v <> Tree.lookup t k then
            QCheck2.Test.fail_reportf "key %d: read <> lookup" k;
          (match Tree.validate t' with
          | Ok () -> ()
          | Error e -> QCheck2.Test.fail_reportf "invalid: %s" e);
          (match Tree.find t' k with
          | Some n when not (Node.depends_on_content n || Node.altered n) ->
              QCheck2.Test.fail_reportf "key %d: read left unguarded" k
          | _ -> ());
          t')
        t reads
      |> ignore;
      true)

let prop_range_matches_model =
  QCheck2.Test.make ~name:"range scan agrees with Map model" ~count:200
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 80) op_gen)
        (int_bound 400) (int_bound 400))
    (fun (ops, a, b) ->
      let lo = min a b and hi = max a b in
      let fresh = make_fresh () in
      let tree, model, _ =
        List.fold_left apply_op (Tree.empty, KeyMap.empty, fresh) ops
      in
      let expected =
        KeyMap.bindings model
        |> List.filter (fun (k, _) -> k >= lo && k <= hi)
        |> List.map fst
      in
      let got = List.map fst (Tree.range_items tree ~lo ~hi) in
      expected = got)

(* The unboxed [Key.priority_greater] against its [Int64] formulation
   over [Key.priority]: the treap order, so every shape and digest,
   must not move. *)
let prop_priority_greater_unboxed =
  let key =
    QCheck2.Gen.(
      oneof
        [
          int;
          int_range (-1000) 1000;
          oneofl [ min_int; max_int; 0; -1; 1; min_int + 1; max_int - 1 ];
        ])
  in
  QCheck2.Test.make ~name:"priority_greater = Int64 formulation" ~count:2000
    QCheck2.Gen.(pair key (oneof [ key; return 0 ]))
    (fun (a, b) ->
      let reference a b =
        let c = Int64.unsigned_compare (Key.priority a) (Key.priority b) in
        if c <> 0 then c > 0 else a < b
      in
      Key.priority_greater a b = reference a b
      && Key.priority_greater b a = reference b a
      && Key.priority_greater a a = reference a a)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_model_agreement;
      prop_shape_canonical;
      prop_range_matches_model;
      prop_read_is_lookup;
      prop_priority_greater_unboxed;
    ]

let () =
  Alcotest.run "tree"
    [
      ( "treap",
        [
          Alcotest.test_case "of_sorted basics" `Quick test_of_sorted_basic;
          Alcotest.test_case "of_sorted rejects unsorted" `Quick
            test_of_sorted_rejects_unsorted;
          Alcotest.test_case "depth logarithmic" `Quick test_depth_logarithmic;
          Alcotest.test_case "canonical shape" `Quick
            test_canonical_shape_any_insertion_order;
          Alcotest.test_case "upsert update" `Quick test_upsert_update;
          Alcotest.test_case "upsert insert" `Quick test_upsert_insert;
          Alcotest.test_case "delete tombstone" `Quick test_delete_is_tombstone;
          Alcotest.test_case "touch_read marks" `Quick test_touch_read_marks;
          Alcotest.test_case "touch_read own write" `Quick
            test_touch_read_own_write_noop;
          Alcotest.test_case "touch_read absent" `Quick
            test_touch_read_absent_guards_structure;
          Alcotest.test_case "touch_range marks" `Quick
            test_touch_range_marks_in_range;
          Alcotest.test_case "touch_range empty" `Quick
            test_touch_range_empty_guards_neighbours;
          Alcotest.test_case "pred/succ" `Quick test_pred_succ;
          Alcotest.test_case "range items" `Quick test_range_items;
          Alcotest.test_case "path length" `Quick test_path_length;
        ] );
      ("properties", qcheck_cases);
    ]
