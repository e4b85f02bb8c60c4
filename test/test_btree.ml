(* Copy-on-write B-tree baseline (the rejected index design of Section 2). *)
module B = Hyder_baselines.Cow_btree
module Rng = Hyder_util.Rng
module I = Hyder_codec.Intention
open Hyder_tree

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let load n = Array.init n (fun k -> (k * 2, "v" ^ string_of_int (k * 2)))

let test_bulk_load_and_lookup () =
  let t = B.create ~fanout:8 (load 1000) in
  (match B.validate t with Ok () -> () | Error e -> Alcotest.failf "invalid: %s" e);
  check_int "size" 1000 (B.size t);
  for k = 0 to 999 do
    Alcotest.(check (option string))
      "present" (Some ("v" ^ string_of_int (k * 2)))
      (B.lookup t (k * 2));
    check "absent between" true (B.lookup t ((k * 2) + 1) = None)
  done;
  check "depth much smaller than binary" true (B.depth t <= 5)

let test_update_cow () =
  let t0 = B.create ~fanout:16 (load 500) in
  let t1, stats = B.update t0 100 "updated" in
  Alcotest.(check (option string)) "new value" (Some "updated") (B.lookup t1 100);
  Alcotest.(check (option string)) "old tree untouched" (Some "v100")
    (B.lookup t0 100);
  check_int "path-depth nodes copied" (B.depth t0) stats.B.nodes_copied;
  check "bytes accounted" true (stats.B.bytes_copied > 0);
  check "still valid" true (Result.is_ok (B.validate t1))

let test_update_missing_raises () =
  let t = B.create ~fanout:8 (load 100) in
  Alcotest.check_raises "not found" Not_found (fun () ->
      ignore (B.update t 1 "nope"))

let test_insert_with_splits () =
  let t = ref (B.create ~fanout:4 (load 4)) in
  for k = 0 to 199 do
    let key = (k * 2) + 1 in
    let t', _ = B.insert !t key ("i" ^ string_of_int key) in
    t := t'
  done;
  check_int "grown" 204 (B.size !t);
  (match B.validate !t with Ok () -> () | Error e -> Alcotest.failf "invalid: %s" e);
  check "depth grew via root splits" true (B.depth !t > 2);
  for k = 0 to 199 do
    check "inserted key present" true (B.mem !t ((k * 2) + 1))
  done

let test_insert_duplicate_rejected () =
  let t = B.create ~fanout:8 (load 10) in
  try
    ignore (B.insert t 4 "dup");
    Alcotest.fail "expected rejection"
  with Invalid_argument _ -> ()

let prop_model_agreement =
  QCheck2.Test.make ~name:"btree agrees with Map model" ~count:100
    QCheck2.Gen.(pair (int_range 4 32) (list_size (int_range 1 150) (int_bound 2000)))
    (fun (fanout, keys) ->
      let module M = Map.Make (Int) in
      let t = ref (B.create ~fanout (load 50)) in
      let model =
        ref (Array.fold_left (fun m (k, v) -> M.add k v m) M.empty (load 50))
      in
      List.iter
        (fun k ->
          let v = "x" ^ string_of_int k in
          if M.mem k !model then begin
            let t', _ = B.update !t k v in
            t := t'
          end
          else begin
            let t', _ = B.insert !t k v in
            t := t'
          end;
          model := M.add k v !model)
        keys;
      Result.is_ok (B.validate !t)
      && M.bindings !model = B.to_alist !t)

let test_btree_intentions_bigger_than_binary () =
  (* The Section 2 design argument: under copy-on-write, per-update bytes
     are far larger with a B-tree than with a binary tree. *)
  let n = 50_000 in
  let items = Array.init n (fun k -> (k, "0123456789abcdef" (* 16B *))) in
  let btree = B.create ~fanout:64 items in
  let treap =
    Tree.of_sorted_array
      (Array.map (fun (k, v) -> (k, Payload.value v)) items)
  in
  let rng = Rng.create 4L in
  let b_bytes = ref 0 and t_bytes = ref 0 in
  let c = ref 0 in
  let fresh () = incr c; !c in
  for _ = 1 to 200 do
    let k = Rng.int rng n in
    let _, stats = B.update btree k "new-value-xxxxxx" in
    b_bytes := !b_bytes + stats.B.bytes_copied;
    (* binary-tree copied path: nodes on the search path, ~40B each + value *)
    let path = Tree.path_length treap k in
    t_bytes := !t_bytes + (path * 40) + 16;
    ignore (Tree.upsert treap ~owner:I.draft_owner ~fresh k (Payload.value "new-value-xxxxxx"))
  done;
  check
    (Printf.sprintf "B-tree copies more bytes per update (%d vs %d)" !b_bytes
       !t_bytes)
    true
    (!b_bytes > !t_bytes)

let () =
  Alcotest.run "btree"
    [
      ( "cow-btree",
        [
          Alcotest.test_case "bulk load" `Quick test_bulk_load_and_lookup;
          Alcotest.test_case "update CoW" `Quick test_update_cow;
          Alcotest.test_case "update missing" `Quick test_update_missing_raises;
          Alcotest.test_case "insert splits" `Quick test_insert_with_splits;
          Alcotest.test_case "duplicate insert" `Quick
            test_insert_duplicate_rejected;
          Alcotest.test_case "design argument" `Quick
            test_btree_intentions_bigger_than_binary;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_model_agreement ] );
    ]
