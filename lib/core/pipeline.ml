open Hyder_tree
module Intention = Hyder_codec.Intention
module Codec = Hyder_codec.Codec
module Summary = Hyder_util.Stats.Summary
module Clock = Hyder_util.Clock
module Flight = Hyder_obs.Flight

type config = {
  premeld : Premeld.config option;
  group_size : int;
}

let plain = { premeld = None; group_size = 1 }
let with_premeld = { premeld = Some Premeld.default_config; group_size = 1 }
let with_group_meld = { premeld = None; group_size = 2 }

let with_both =
  { premeld = Some Premeld.default_config; group_size = 2 }

type decided_at = Group_meld.decided_at =
  | At_premeld
  | At_group_meld
  | At_final_meld

(* Short machine labels shared by the flight-record sink and the cluster
   simulator's abort breakdown. *)
let reason_slug = function
  | Meld.Write_conflict _ -> "write_conflict"
  | Meld.Read_conflict _ -> "read_conflict"
  | Meld.Phantom_conflict _ -> "phantom_conflict"

let decided_at_slug = function
  | At_premeld -> "premeld"
  | At_group_meld -> "group_meld"
  | At_final_meld -> "final_meld"

type decision = {
  seq : int;
  pos : int;
  server : int;
  txn_seq : int;
  committed : bool;
  reason : Meld.abort_reason option;
  decided_at : decided_at;
}

(* Kept only for [benchmark/] (see the interface); nothing builds one. *)
type offload_stats = {
  ds_offloaded : int;
  ds_inline : int;
  worker_ds_seconds : float;
  worker_pm_seconds : float;
  worker_gm_seconds : float;
  max_queue_depth : int;
  queue_capacity : int;
  handoff_batches : int;
  handoff_items : int;
  doorbell_wakeups : int;
  driver_steals : int;
}

(* The readings of the stage bracket last opened.  An all-float record
   is stored flat, so a bracket allocates nothing and needs no closure. *)
type span = { mutable t0 : float; mutable words0 : float; mutable t1 : float }

type t = {
  config : config;
  flight : Flight.t;  (** per-transaction lifecycle recorder *)
  counters : Counters.t;
  span : span;  (** the stage bracket's readings *)
  states : State_store.t;
  fm_alloc : Vn.Alloc.t;
  pm_allocs : Vn.Alloc.t array;
  gm_alloc : Vn.Alloc.t;
  mutable next_seq : int;
  mutable pending : Group_meld.group option;  (** group being assembled *)
}

let new_span () = { t0 = 0.0; words0 = 0.0; t1 = 0.0 }
let states t = t.states
let counters t = t.counters
let config t = t.config
let lcs t = State_store.latest t.states

let shutdown _ = ()
let offload _ = None

(* The one stage bracket: every stage opens it before its work and
   closes it after its tallies, booking the span's time and minor-heap
   words into its {!Counters.stage}.  Neither reading allocates, and the
   booking's one allocation (the boxed [seconds], 2 words) comes after
   both, so it is charged to no stage; flight edges are stamped after
   the close from the same readings. *)
let open_stage t =
  t.span.t0 <- Clock.now ();
  t.span.words0 <- Gc.minor_words ()

let close_stage t (stage : Counters.stage) =
  let words1 = Gc.minor_words () in
  let t1 = Clock.now () in
  let s = t.span in
  s.t1 <- t1;
  stage.seconds <- stage.seconds +. (t1 -. s.t0);
  stage.minor_words <- stage.minor_words + int_of_float (words1 -. s.words0)

let flight_edge t ~pos stage =
  if Flight.enabled t.flight then
    Flight.edge t.flight ~pos ~stage ~t0:t.span.t0 ~t1:t.span.t1

(* The ds stage: decode the wire record straight to the intention's
   tree.  The snapshot state is both the binding peer and the resolver,
   and nothing else is: meld's graft checks compare node objects
   physically, so a reference must bind to the same object on every
   replica and GC schedule, and the retained state is the one source all
   of them share.  A reference the state cannot answer with the recorded
   version is rejected as [Corrupt], and a snapshot the log has not
   recorded yet makes the stream invalid.  Only a successful decode is
   booked: a rejected intention leaves every counter as it was. *)
let decode t ~pos src =
  open_stage t;
  let snap = Codec.peek_snapshot src in
  let _, lpos, _ = State_store.latest t.states in
  if snap > lpos then
    failwith
      (Printf.sprintf
         "Pipeline.decode: intention at log position %d names snapshot %d \
          but only %d is recorded — invalid stream"
         pos snap lpos);
  let peer =
    match State_store.by_pos t.states snap with
    | Some tree -> tree
    | None -> Node.empty
  in
  let i = Codec.decode ~pos ~peer ~resolve:(State_store.resolver t.states) src in
  let ds = t.counters.deserialize in
  ds.intentions <- ds.intentions + 1;
  ds.nodes_visited <- ds.nodes_visited + i.Intention.node_count;
  Summary.add t.counters.intention_bytes (float_of_int i.Intention.byte_size);
  close_stage t ds;
  if Flight.enabled t.flight then begin
    let pos = i.Intention.pos in
    Flight.touch t.flight ~pos ~now:t.span.t0;
    Flight.note_identity t.flight ~pos ~server:i.Intention.server
      ~txn_seq:i.Intention.txn_seq;
    flight_edge t ~pos Flight.Ds
  end;
  i

(* Intentions between a member's (effective) snapshot and the LCS final
   meld runs against. *)
let conflict_zone t ~lcs_seq (m : Group_meld.member) =
  max 0
    (lcs_seq
    -
    match m.premeld_input with
    | Some s -> s
    | None -> State_store.seq_of_pos t.states m.intention.snapshot)

(* Run final meld on a completed group and decide every member, in
   sequence order: a member premeld or group meld aborted keeps that
   fate, the survivors share final meld's.  Each member's state is
   recorded at its position so later snapshot references resolve.  The
   fm bracket covers the whole decision pass; every member of the group
   (early aborts included) then gets the bracket's flight edge, so each
   record's wait/service chain stays gapless through decision time. *)
let final_meld t (group : Group_meld.group) =
  let fm = t.counters.final_meld in
  open_stage t;
  let lcs_seq, _lcs_pos, lcs_tree = State_store.latest t.states in
  let survivors = Group_meld.survivors group in
  let alive = List.length survivors in
  let new_state, fate, per_member =
    if alive = 0 then (lcs_tree, None, 0.0)
    else begin
      let nodes_before = fm.nodes_visited in
      fm.intentions <- fm.intentions + alive;
      let r =
        Meld.meld ~mode:Meld.Final ~members:survivors ~alloc:t.fm_alloc
          ~counters:fm ~intention:group.root ~state:lcs_tree ()
      in
      let per_member =
        float_of_int (fm.nodes_visited - nodes_before) /. float_of_int alive
      in
      match r with
      | Meld.Merged s -> (s, None, per_member)
      | Meld.Conflict reason -> (lcs_tree, Some reason, per_member)
    end
  in
  let decisions =
    List.map
      (fun (m : Group_meld.member) ->
        let reason, decided_at =
          match m.aborted with
          | Some (reason, at) -> (Some reason, at)
          | None ->
              Summary.add t.counters.fm_nodes_per_txn per_member;
              Summary.add t.counters.conflict_zone
                (float_of_int (conflict_zone t ~lcs_seq m));
              (fate, At_final_meld)
        in
        let committed = Option.is_none reason in
        State_store.record t.states ~seq:m.seq ~pos:m.intention.pos new_state;
        if committed then t.counters.committed <- t.counters.committed + 1
        else t.counters.aborted <- t.counters.aborted + 1;
        {
          seq = m.seq;
          pos = m.intention.pos;
          server = m.intention.server;
          txn_seq = m.intention.txn_seq;
          committed;
          reason;
          decided_at;
        })
      group.members
  in
  close_stage t fm;
  if Flight.enabled t.flight then
    List.iter2
      (fun m d ->
        flight_edge t ~pos:d.pos Flight.Fm;
        Flight.complete t.flight ~pos:d.pos ~now:t.span.t1 ~seq:d.seq
          ~committed:d.committed
          ~reason:(match d.reason with None -> "" | Some r -> reason_slug r)
          ~decided_at:(decided_at_slug d.decided_at)
          ~conflict_zone:(conflict_zone t ~lcs_seq m))
      group.members decisions;
  decisions

(* Group-meld step: fold [member] into the group being assembled.
   Returns the completed group when it fills (always, with group meld
   off), [None] while it is still filling.  The combine's work is
   attributed to the member being folded in; the waiting members' gm
   time shows up as fm wait. *)
let gm_step t (member : Group_meld.member) =
  let unit_group = Group_meld.single member in
  let merged =
    match t.pending with
    | None -> unit_group
    | Some g ->
        let gm = t.counters.group_meld in
        open_stage t;
        let merged =
          Group_meld.combine ~alloc:t.gm_alloc ~counters:gm g unit_group
        in
        close_stage t gm;
        flight_edge t ~pos:member.intention.pos Flight.Gm;
        merged
  in
  if List.length merged.members >= t.config.group_size then begin
    t.pending <- None;
    Some merged
  end
  else begin
    t.pending <- Some merged;
    None
  end

(* The premeld stage, against the live store. *)
let premeld t pc ~seq (intention : Intention.t) =
  open_stage t;
  let member =
    Premeld.run pc ~allocs:t.pm_allocs ~counters:t.counters.premeld
      ~states:t.states ~seq intention
  in
  close_stage t t.counters.premeld;
  flight_edge t ~pos:intention.pos Flight.Pm;
  member

let submit t (intention : Intention.t) =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let flighted = Flight.enabled t.flight in
  (* Open the flight record at submit time when decode did not already
     (a caller holding a decoded intention); idempotent otherwise. *)
  if flighted then begin
    let now = Clock.now () in
    Flight.touch t.flight ~pos:intention.pos ~now;
    Flight.note_identity t.flight ~pos:intention.pos
      ~server:intention.server ~txn_seq:intention.txn_seq
  end;
  let member =
    match t.config.premeld with
    | None ->
        { Group_meld.seq; intention; premeld_input = None; aborted = None }
    | Some pc -> premeld t pc ~seq intention
  in
  match gm_step t member with Some g -> final_meld t g | None -> []

(* Meld each intention right after its decode, so everything the decode
   allocated dies young. *)
let submit_wire_batch t items =
  List.concat_map (fun (pos, src) -> submit t (decode t ~pos src)) items

let flush t =
  match t.pending with
  | None -> []
  | Some g ->
      t.pending <- None;
      final_meld t g

let prune t ~keep =
  let floor_for_premeld =
    match t.config.premeld with
    | None -> 2
    | Some { Premeld.threads; distance } -> (threads * distance) + 2
  in
  State_store.prune t.states ~keep:(max keep floor_for_premeld)

(* Config validation shared by [create] and [restore]; returns the
   premeld thread count.  A group larger than [threads * distance + 1]
   would hold back the state a member's premeld is designated to read
   until that member's own group completes. *)
let validate_shape ~who ~config =
  if config.group_size < 1 then
    invalid_arg (Printf.sprintf "Pipeline.%s: group_size" who);
  (match config.premeld with
  | Some { Premeld.threads; distance } when threads < 1 || distance < 1 ->
      invalid_arg (Printf.sprintf "Pipeline.%s: premeld config" who)
  | Some { Premeld.threads; distance }
    when config.group_size > (threads * distance) + 1 ->
      invalid_arg
        (Printf.sprintf
           "Pipeline.%s: group_size %d exceeds threads * distance + 1 = %d"
           who config.group_size
           ((threads * distance) + 1))
  | _ -> ());
  match config.premeld with Some c -> c.Premeld.threads | None -> 0

(* [Pipelined] is accepted only for [benchmark/], which still names it
   (see {!Runtime.backend}); every runtime runs the one scheduler. *)
let check_runtime = function
  | Runtime.Sequential | Runtime.Pipelined _ -> ()
  | Runtime.Parallel _ ->
      invalid_arg
        "Pipeline: Runtime.Parallel is not a backend (deleted; the \
         constructor remains only because benchmark/bench.ml matches it)"

let create ?(config = plain) ?(runtime = Runtime.sequential)
    ?(flight = Flight.disabled) ~genesis () =
  check_runtime runtime;
  let pm_threads = validate_shape ~who:"create" ~config in
  {
    config;
    flight;
    counters = Counters.create ();
    span = new_span ();
    states = State_store.create ~genesis ();
    fm_alloc = Vn.Alloc.create ~thread:0;
    pm_allocs =
      Array.init pm_threads (fun i -> Vn.Alloc.create ~thread:(i + 1));
    gm_alloc = Vn.Alloc.create ~thread:(pm_threads + 1);
    next_seq = 0;
    pending = None;
  }

(* --- checkpoint / restore ----------------------------------------------- *)

let checkpoint t =
  match t.pending with
  | Some _ -> None
  | None ->
    Some
      (Checkpoint.capture
         ~store:(State_store.snapshot t.states)
         ~alloc_issued:
           (Array.concat
              [
                [| Vn.Alloc.issued t.fm_alloc |];
                Array.map Vn.Alloc.issued t.pm_allocs;
                [| Vn.Alloc.issued t.gm_alloc |];
              ])
         ~counters:t.counters)

let restore ?(config = plain) ?(flight = Flight.disabled) (ckpt : Checkpoint.t)
    =
  let pm_threads = validate_shape ~who:"restore" ~config in
  if Array.length ckpt.Checkpoint.alloc_issued <> pm_threads + 2 then
    invalid_arg
      (Printf.sprintf
         "Pipeline.restore: checkpoint has %d allocator cursors but this \
          config needs %d (captured under a different premeld config)"
         (Array.length ckpt.Checkpoint.alloc_issued)
         (pm_threads + 2));
  let counters = Counters.copy ckpt.Checkpoint.counters in
  let resume alloc issued =
    Vn.Alloc.resume alloc ~issued;
    alloc
  in
  let issued = ckpt.Checkpoint.alloc_issued in
  {
    config;
    flight;
    counters;
    span = new_span ();
    states = State_store.restore ckpt.Checkpoint.store;
    fm_alloc = resume (Vn.Alloc.create ~thread:0) issued.(0);
    pm_allocs =
      Array.init pm_threads (fun i ->
          resume (Vn.Alloc.create ~thread:(i + 1)) issued.(i + 1));
    gm_alloc =
      resume (Vn.Alloc.create ~thread:(pm_threads + 1)) issued.(pm_threads + 1);
    next_seq = ckpt.Checkpoint.seq + 1;
    pending = None;
  }
