open Hyder_tree

type entry = { seq : int; pos : int; state : Tree.t }

type t = {
  mutable entries : entry array;  (** circular buffer, ordered by seq *)
  mutable mask : int;  (** capacity - 1; capacity is a power of two *)
  mutable first : int;  (** index of oldest entry *)
  mutable count : int;
  mutable pruned_any : bool;
  mutable genesis : Tree.t option;
      (** [None] after the first prune that leaves a state; kept longer,
          it would keep the genesis version of every rewritten node live *)
}

let initial_capacity = 4096 (* must stay a power of two: [nth] masks *)

(* Filler for slots that hold no live entry.  Unused and evacuated slots
   must not keep references to real states: a pruned [Tree.t] pinned by a
   stale slot survives until the ring wraps over it, which for a large
   capacity is effectively forever. *)
let dummy = { seq = -1; pos = -1; state = Node.empty }

let create ~genesis () =
  {
    entries = Array.make initial_capacity dummy;
    mask = initial_capacity - 1;
    first = 0;
    count = 0;
    pruned_any = false;
    genesis = Some genesis;
  }

let nth t i = t.entries.((t.first + i) land t.mask)

let latest t =
  if t.count = 0 then
    (* [prune] drops genesis only while a state remains, and keeps one
       after that *)
    (-1, -1, Option.get t.genesis)
  else begin
    let e = nth t (t.count - 1) in
    (e.seq, e.pos, e.state)
  end

let grow t =
  let cap = Array.length t.entries in
  let bigger = Array.make (2 * cap) dummy in
  for i = 0 to t.count - 1 do
    bigger.(i) <- nth t i
  done;
  t.entries <- bigger;
  t.mask <- (2 * cap) - 1;
  t.first <- 0

let record t ~seq ~pos state =
  let last_seq, last_pos, _ = latest t in
  if seq <> last_seq + 1 then
    invalid_arg
      (Printf.sprintf "State_store.record: seq %d after %d" seq last_seq);
  if pos <= last_pos then
    invalid_arg
      (Printf.sprintf "State_store.record: pos %d after %d" pos last_pos);
  if t.count = Array.length t.entries then grow t;
  t.entries.((t.first + t.count) land t.mask) <- { seq; pos; state };
  t.count <- t.count + 1

let by_seq t seq =
  if seq = -1 then t.genesis
  else if t.count = 0 then None
  else begin
    let first_seq = (nth t 0).seq in
    let i = seq - first_seq in
    if i < 0 || i >= t.count then None else Some (nth t i).state
  end

(* Newest entry with position <= pos, by binary search. *)
let find_by_pos t pos =
  if t.count = 0 || (nth t 0).pos > pos then None
  else begin
    let lo = ref 0 and hi = ref (t.count - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if (nth t mid).pos <= pos then lo := mid else hi := mid - 1
    done;
    Some (nth t !lo)
  end

let by_pos t pos =
  if pos = -1 then t.genesis
  else
    match find_by_pos t pos with
    | Some e -> Some e.state
    | None ->
        (* A position older than every recorded intention is the genesis
           state — unless history has been pruned away. *)
        if t.pruned_any then None else t.genesis

let seq_of_pos t pos =
  if pos = -1 then -1
  else match find_by_pos t pos with None -> -1 | Some e -> e.seq

(* Prune safety is a contract between the prune policy and every stage
   that looks states up; when it breaks, the error must say WHICH stage's
   arithmetic was starved (ds resolving a snapshot reference vs premeld
   fetching its designated input state need different retention floors). *)
let not_retained ~stage ~what v lo hi =
  failwith
    (Printf.sprintf
       "State_store: %s stage needs the state at %s %d but retention is \
        [%d..%d] — pruned too far for this stage"
       stage what v lo hi)

let require t ~stage seq =
  match by_seq t seq with
  | Some s -> s
  | None ->
      let lo = if t.count = 0 then 0 else (nth t 0).seq in
      not_retained ~stage ~what:"seq" seq lo (lo + t.count - 1)

(* Memoizing key resolver: one intention resolves many references
   against the same snapshot. *)
let resolver ?(stage = "ds") t : Hyder_codec.Codec.resolver =
  let last = ref None in
  fun ~snapshot ~key ~vn ->
    ignore vn;
    let state =
      match !last with
      | Some (pos, state) when pos = snapshot -> Some state
      | _ ->
          let s = by_pos t snapshot in
          (match s with Some st -> last := Some (snapshot, st) | None -> ());
          s
    in
    match state with
    | None -> not_retained ~stage ~what:"position" snapshot (-1) (-1)
    | Some state -> (
        match Tree.find state key with
        | None -> Node.empty
        | Some n -> n)

module Snapshot = struct
  type nonrec t = {
    entries : entry array;  (** oldest first, dense in seq *)
    genesis : Tree.t option;
    pruned : bool;  (** whether the source store had ever pruned *)
  }

  let latest s =
    let n = Array.length s.entries in
    if n = 0 then (-1, -1) else (s.entries.(n - 1).seq, s.entries.(n - 1).pos)

  let by_seq s seq =
    if seq = -1 then s.genesis
    else begin
      let n = Array.length s.entries in
      if n = 0 then None
      else begin
        let i = seq - s.entries.(0).seq in
        if i < 0 || i >= n then None else Some s.entries.(i).state
      end
    end
end

let snapshot t =
  {
    Snapshot.entries = Array.init t.count (nth t);
    genesis = t.genesis;
    pruned = t.pruned_any;
  }

(* Rebuild a live store from a frozen retention window — the recovery
   path: a restarted pipeline resumes from a checkpointed window with
   exactly the lookup behaviour the original store had at capture time
   (same retained range, same pruned-history strictness). *)
let restore (s : Snapshot.t) =
  let n = Array.length s.Snapshot.entries in
  let cap = ref initial_capacity in
  while !cap < n + 1 do
    cap := 2 * !cap
  done;
  let entries = Array.make !cap dummy in
  Array.blit s.Snapshot.entries 0 entries 0 n;
  {
    entries;
    mask = !cap - 1;
    first = 0;
    count = n;
    pruned_any = s.Snapshot.pruned;
    genesis = s.Snapshot.genesis;
  }

let prune t ~keep =
  if keep < 0 then invalid_arg "State_store.prune";
  (* without genesis, the newest state is all [latest] can answer *)
  let keep = if Option.is_none t.genesis then max keep 1 else keep in
  if t.count > keep then begin
    t.pruned_any <- true;
    while t.count > keep do
      t.entries.(t.first) <- dummy;
      t.first <- (t.first + 1) land t.mask;
      t.count <- t.count - 1
    done;
    (* genesis is now older than every retained state: drop it like them *)
    if t.count > 0 then t.genesis <- None
  end

let retained t = t.count
