open Hyder_tree

type node =
  | Leaf of (Key.t * string) array
  | Internal of Key.t array * node array
      (* children.(i) holds keys < keys.(i); the last child holds the rest;
         |keys| = |children| - 1 *)

type t = { fanout : int; root : node; size : int }

type cow_stats = { nodes_copied : int; bytes_copied : int }

let node_header = 16 (* type tag + length words, serialized *)

let node_size = function
  | Leaf kvs ->
      Array.fold_left
        (fun acc (_, v) -> acc + 8 + 4 + String.length v)
        node_header kvs
  | Internal (keys, children) ->
      node_header + (8 * Array.length keys) + (8 * Array.length children)

(* ------------------------------------------------------------------ *)
(* Bulk load                                                            *)
(* ------------------------------------------------------------------ *)

let chunk ~target arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let pieces = max 1 ((n + target - 1) / target) in
    Array.init pieces (fun i ->
        let lo = i * n / pieces and hi = (i + 1) * n / pieces in
        Array.sub arr lo (hi - lo))
  end

let create ~fanout items =
  if fanout < 4 then invalid_arg "Cow_btree.create: fanout must be >= 4";
  for i = 1 to Array.length items - 1 do
    if Key.compare (fst items.(i - 1)) (fst items.(i)) >= 0 then
      invalid_arg "Cow_btree.create: keys must be strictly increasing"
  done;
  let target = max 2 (fanout * 3 / 4) in
  let min_key = function
    | Leaf kvs -> fst kvs.(0)
    | Internal _ -> assert false
  in
  (* build leaves, then reduce levels until a single root remains *)
  let rec reduce level mins =
    if Array.length level <= 1 then
      if Array.length level = 1 then level.(0) else Leaf [||]
    else begin
      let groups = chunk ~target:(max 2 (fanout * 3 / 4)) level in
      let group_mins = chunk ~target:(max 2 (fanout * 3 / 4)) mins in
      let parents =
        Array.mapi
          (fun gi g ->
            let keys = Array.sub group_mins.(gi) 1 (Array.length g - 1) in
            Internal (keys, g))
          groups
      in
      let parent_mins = Array.map (fun m -> m.(0)) group_mins in
      reduce parents parent_mins
    end
  in
  let leaves = chunk ~target items |> Array.map (fun kvs -> Leaf kvs) in
  let root =
    if Array.length leaves = 0 then Leaf [||]
    else reduce leaves (Array.map min_key leaves)
  in
  { fanout; root; size = Array.length items }

(* ------------------------------------------------------------------ *)
(* Queries                                                              *)
(* ------------------------------------------------------------------ *)

(* child index for a key: first i with key < keys.(i), else last child *)
let child_index keys key =
  let n = Array.length keys in
  let rec go lo hi =
    (* smallest i in [lo, hi] with key < keys.(i); hi = n means none *)
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if Key.compare key keys.(mid) < 0 then go lo mid else go (mid + 1) hi
    end
  in
  go 0 n

let rec find_leaf node key =
  match node with
  | Leaf kvs -> kvs
  | Internal (keys, children) -> find_leaf children.(child_index keys key) key

let lookup t key =
  let kvs = find_leaf t.root key in
  let n = Array.length kvs in
  let rec bin lo hi =
    if lo >= hi then None
    else begin
      let mid = (lo + hi) / 2 in
      let c = Key.compare key (fst kvs.(mid)) in
      if c = 0 then Some (snd kvs.(mid))
      else if c < 0 then bin lo mid
      else bin (mid + 1) hi
    end
  in
  bin 0 n

let mem t key = lookup t key <> None

let size t = t.size

let rec node_depth = function
  | Leaf _ -> 1
  | Internal (_, children) -> 1 + node_depth children.(0)

let depth t = node_depth t.root

let to_alist t =
  let acc = ref [] in
  let rec go = function
    | Leaf kvs ->
        for i = Array.length kvs - 1 downto 0 do
          acc := kvs.(i) :: !acc
        done
    | Internal (_, children) ->
        for i = Array.length children - 1 downto 0 do
          go children.(i)
        done
  in
  go t.root;
  !acc

(* ------------------------------------------------------------------ *)
(* Copy-on-write update                                                 *)
(* ------------------------------------------------------------------ *)

let update t key value =
  let copied = ref 0 and bytes = ref 0 in
  let account n =
    incr copied;
    bytes := !bytes + node_size n;
    n
  in
  let rec go node =
    match node with
    | Leaf kvs ->
        let idx =
          let n = Array.length kvs in
          let rec bin lo hi =
            if lo >= hi then raise Not_found
            else begin
              let mid = (lo + hi) / 2 in
              let c = Key.compare key (fst kvs.(mid)) in
              if c = 0 then mid else if c < 0 then bin lo mid else bin (mid + 1) hi
            end
          in
          bin 0 n
        in
        let kvs' = Array.copy kvs in
        kvs'.(idx) <- (key, value);
        account (Leaf kvs')
    | Internal (keys, children) ->
        let i = child_index keys key in
        let children' = Array.copy children in
        children'.(i) <- go children.(i);
        account (Internal (keys, children'))
  in
  let root = go t.root in
  ({ t with root }, { nodes_copied = !copied; bytes_copied = !bytes })

(* ------------------------------------------------------------------ *)
(* Copy-on-write insert with splits                                     *)
(* ------------------------------------------------------------------ *)

let array_insert arr idx x =
  let n = Array.length arr in
  Array.init (n + 1) (fun i ->
      if i < idx then arr.(i) else if i = idx then x else arr.(i - 1))

let insert t key value =
  let copied = ref 0 and bytes = ref 0 in
  let account n =
    incr copied;
    bytes := !bytes + node_size n;
    n
  in
  (* returns either a single new node, or (left, separator, right) after a
     split *)
  let rec go node =
    match node with
    | Leaf kvs ->
        let n = Array.length kvs in
        let rec pos lo hi =
          if lo >= hi then lo
          else begin
            let mid = (lo + hi) / 2 in
            let c = Key.compare key (fst kvs.(mid)) in
            if c = 0 then invalid_arg "Cow_btree.insert: key exists"
            else if c < 0 then pos lo mid
            else pos (mid + 1) hi
          end
        in
        let idx = pos 0 n in
        let kvs' = array_insert kvs idx (key, value) in
        if Array.length kvs' <= t.fanout then `One (account (Leaf kvs'))
        else begin
          let mid = Array.length kvs' / 2 in
          let left = Array.sub kvs' 0 mid in
          let right = Array.sub kvs' mid (Array.length kvs' - mid) in
          let sep = fst right.(0) in
          `Split (account (Leaf left), sep, account (Leaf right))
        end
    | Internal (keys, children) ->
        let i = child_index keys key in
        (match go children.(i) with
        | `One child ->
            let children' = Array.copy children in
            children'.(i) <- child;
            `One (account (Internal (keys, children')))
        | `Split (l, sep, r) ->
            let keys' = array_insert keys i sep in
            let children' =
              Array.init
                (Array.length children + 1)
                (fun j ->
                  if j < i then children.(j)
                  else if j = i then l
                  else if j = i + 1 then r
                  else children.(j - 1))
            in
            if Array.length children' <= t.fanout then
              `One (account (Internal (keys', children')))
            else begin
              let midc = Array.length children' / 2 in
              (* promote keys'.(midc - 1); left gets children [0, midc) *)
              let promoted = keys'.(midc - 1) in
              let lkeys = Array.sub keys' 0 (midc - 1) in
              let lchildren = Array.sub children' 0 midc in
              let rkeys =
                Array.sub keys' midc (Array.length keys' - midc)
              in
              let rchildren =
                Array.sub children' midc (Array.length children' - midc)
              in
              `Split
                ( account (Internal (lkeys, lchildren)),
                  promoted,
                  account (Internal (rkeys, rchildren)) )
            end)
  in
  let root =
    match go t.root with
    | `One n -> n
    | `Split (l, sep, r) -> account (Internal ([| sep |], [| l; r |]))
  in
  ( { t with root; size = t.size + 1 },
    { nodes_copied = !copied; bytes_copied = !bytes } )

(* ------------------------------------------------------------------ *)
(* Validation                                                           *)
(* ------------------------------------------------------------------ *)

let validate t =
  let exception Bad of string in
  let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  let leaf_depth = ref (-1) in
  let rec go node lo hi d =
    (match node with
    | Leaf kvs ->
        if Array.length kvs > t.fanout then fail "overfull leaf";
        Array.iter
          (fun (k, _) ->
            (match lo with
            | Some l when Key.compare k l < 0 -> fail "key %d below bound" k
            | _ -> ());
            match hi with
            | Some h when Key.compare k h >= 0 -> fail "key %d above bound" k
            | _ -> ())
          kvs;
        for i = 1 to Array.length kvs - 1 do
          if Key.compare (fst kvs.(i - 1)) (fst kvs.(i)) >= 0 then
            fail "leaf keys out of order"
        done
    | Internal (keys, children) ->
        if Array.length children > t.fanout then fail "overfull internal";
        if Array.length children < 2 then fail "underfull internal";
        if Array.length keys <> Array.length children - 1 then
          fail "key/child arity mismatch";
        Array.iteri
          (fun i c ->
            let lo' = if i = 0 then lo else Some keys.(i - 1) in
            let hi' = if i = Array.length keys then hi else Some keys.(i) in
            go c lo' hi' (d + 1))
          children);
    match node with
    | Leaf _ ->
        (* all leaves at the same depth *)
        if !leaf_depth = -1 then leaf_depth := d
        else if !leaf_depth <> d then fail "ragged leaves"
    | Internal _ -> ()
  in
  match go t.root None None 0 with
  | () ->
      if List.length (to_alist t) <> t.size then Error "size mismatch"
      else Ok ()
  | exception Bad s -> Error s
