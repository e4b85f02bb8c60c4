open Hyder_tree
module Intention = Hyder_codec.Intention
module Codec = Hyder_codec.Codec
module View = Hyder_codec.View
module Summary = Hyder_util.Stats.Summary
module Clock = Hyder_util.Clock
module Metrics = Hyder_obs.Metrics
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

type decided_at = At_premeld | At_group_meld | At_final_meld

(* Short machine labels shared by the abort-reason metric counters, the
   flight-record sink and the cluster simulator's abort breakdown. *)
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

(* Pipeline-level metrics, resolved once at create time so the hot path
   never does a registry lookup. *)
type instruments = {
  m_conflict_zone : Metrics.Histogram.t;
  m_fm_nodes : Metrics.Histogram.t;
  m_commits : Metrics.Counter.t;
  m_aborts : Metrics.Counter.t;
  (* Abort-reason breakdown (the registry sanitizes names to
     [a-zA-Z0-9_:], so the label is suffix-encoded into the name). *)
  m_aborts_write : Metrics.Counter.t;
  m_aborts_read : Metrics.Counter.t;
  m_aborts_phantom : Metrics.Counter.t;
  (* Per-stage GC deltas ([Gc.counters] minor/promoted words), sampled
     around each stage's work. *)
  m_ds_gc_minor : Metrics.Fcounter.t;
  m_ds_gc_promoted : Metrics.Fcounter.t;
  m_pm_gc_minor : Metrics.Fcounter.t;
  m_pm_gc_promoted : Metrics.Fcounter.t;
  m_gm_gc_minor : Metrics.Fcounter.t;
  m_gm_gc_promoted : Metrics.Fcounter.t;
  m_fm_gc_minor : Metrics.Fcounter.t;
  m_fm_gc_promoted : Metrics.Fcounter.t;
  (* Minor words spent materializing flyweight view nodes into heap
     nodes.  Lazy decoding moves node allocation out of the ds bracket
     and into whichever stage first needs the node; without this split,
     the move would be misbooked as pm/gm/fm allocation growth.  It is
     not a bracket of its own: meld reports materialization deltas
     through its [?mz] hook, which adds here and subtracts from the
     enclosing stage's minor counter, keeping each stage honest and the
     total unchanged. *)
  m_mz_gc_minor : Metrics.Fcounter.t;
}

(* GC sampling around a stage, inert when metrics are off: one branch,
   no allocation (the off-branch pair is a static constant).

   Minor words come from [Gc.minor_words] — the only cumulative-allocation
   reading that includes words allocated since the last minor collection
   (on OCaml 5.1, [Gc.counters] and [Gc.quick_stat] update their
   minor_words only AT minor collections, which turns small bracket
   deltas into collection-timing noise).  Promoted words have no such
   exact reading — promotion only happens at minor collections — so that
   column is naturally quantized to the collections that fired inside
   the bracket. *)
let gc_begin inst =
  match inst with
  | None -> (0.0, 0.0)
  | Some _ ->
      (* Promoted first: [Gc.counters]'s own result tuple then lands
         before the minor reading, outside the measured span. *)
      let _, pw, _ = Gc.counters () in
      let mw = Gc.minor_words () in
      (mw, pw)

let gc_end inst ~stage (mw0, pw0) =
  match inst with
  | None -> ()
  | Some i ->
      (* Minor first, for the same reason. *)
      let mw1 = Gc.minor_words () in
      let _, pw1, _ = Gc.counters () in
      let minor, promoted =
        match stage with
        | `Ds -> (i.m_ds_gc_minor, i.m_ds_gc_promoted)
        | `Pm -> (i.m_pm_gc_minor, i.m_pm_gc_promoted)
        | `Gm -> (i.m_gm_gc_minor, i.m_gm_gc_promoted)
        | `Fm -> (i.m_fm_gc_minor, i.m_fm_gc_promoted)
      in
      Metrics.Fcounter.add minor (mw1 -. mw0);
      Metrics.Fcounter.add promoted (pw1 -. pw0)

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

type t = {
  config : config;
  flight : Flight.t;  (** per-transaction lifecycle recorder *)
  inst : instruments option;
  counters : Counters.t;
  states : State_store.t;
  fm_alloc : Vn.Alloc.t;
  pm_allocs : Vn.Alloc.t array;
  gm_alloc : Vn.Alloc.t;
  mutable next_seq : int;
  mutable pending : Group_meld.group option;  (** group being assembled *)
  mutable pending_members : int;
}

let states t = t.states
let counters t = t.counters
let config t = t.config
let lcs t = State_store.latest t.states

let shutdown _ = ()
let offload _ = None

(* Materialization ("mz") accounting helpers.  [mz_note] books an
   explicit delta; [mz_hook] builds the meld-side hook that also
   subtracts the delta from the enclosing stage bracket (which sampled
   those words too). *)
let mz_note t d =
  match t.inst with
  | None -> ()
  | Some i -> Metrics.Fcounter.add i.m_mz_gc_minor d

let mz_hook t ~stage =
  match t.inst with
  | None -> None
  | Some i ->
      let enclosing =
        match stage with
        | `Pm -> i.m_pm_gc_minor
        | `Gm -> i.m_gm_gc_minor
        | `Fm -> i.m_fm_gc_minor
      in
      Some
        (fun d ->
          Metrics.Fcounter.add i.m_mz_gc_minor d;
          Metrics.Fcounter.add enclosing (-.d))

(* Force a still-lazy group to a real tree (the pending state side of the
   next combine needs one), booking the materialization words. *)
let force_tree t (g : Group_meld.group) =
  match g.Group_meld.view with
  | None -> g
  | Some v ->
      let mw0 = Gc.minor_words () in
      let root = View.materialize_root v in
      mz_note t (Gc.minor_words () -. mw0);
      { g with Group_meld.root; view = None }

(* The ds stage: index the wire record in place (zero-copy) as a
   flyweight view.  The snapshot state is both the binding peer and the
   resolver, and nothing else is: meld's graft checks compare node
   objects physically, so a reference must bind to the same object on
   every replica and GC schedule, and the retained state is the one
   source all of them share.  A reference the state cannot answer with
   the recorded version is rejected as [Corrupt].  Nothing outlives the
   decode but the returned intention, so its wire arrays die young once
   it is melded.  Only a successful parse is booked: a rejected
   intention leaves every counter as it was. *)
let decode t ~pos src =
  let t0 = Clock.now () in
  let gc0 = gc_begin t.inst in
  let peer =
    match State_store.by_pos t.states (Codec.peek_snapshot src) with
    | Some tree -> tree
    | None -> Node.empty
  in
  let i =
    Codec.decode_lazy ~pos ~peer ~resolve:(State_store.resolver t.states) src
  in
  gc_end t.inst ~stage:`Ds gc0;
  let t1 = Clock.now () in
  let ds = t.counters.deserialize in
  ds.intentions <- ds.intentions + 1;
  ds.nodes_visited <- ds.nodes_visited + i.Intention.node_count;
  ds.seconds <- ds.seconds +. (t1 -. t0);
  Summary.add t.counters.intention_bytes (float_of_int i.Intention.byte_size);
  if Flight.enabled t.flight then begin
    let pos = i.Intention.pos in
    Flight.touch t.flight ~pos ~now:t0;
    Flight.note_identity t.flight ~pos ~server:i.Intention.server
      ~txn_seq:i.Intention.txn_seq;
    Flight.edge t.flight ~pos ~stage:Flight.Ds ~t0 ~t1
  end;
  i

(* An intention decodes only once the log has recorded its snapshot
   state; a member naming a later one makes the stream invalid. *)
let decode_checked t ~pos src =
  let _, lpos, _ = State_store.latest t.states in
  let snap = Codec.peek_snapshot src in
  if snap > lpos then
    failwith
      (Printf.sprintf
         "Pipeline.submit_wire_batch: intention at log position %d names \
          snapshot %d but only %d is recorded — invalid stream"
         pos snap lpos);
  decode t ~pos src

(* Run final meld on a completed group and emit its decisions. *)
let final_meld t (group : Group_meld.group) =
  let fm = t.counters.final_meld in
  let lcs_seq, _lcs_pos, lcs_tree = State_store.latest t.states in
  let alive = List.length group.members in
  let nodes_before = fm.nodes_visited in
  let flighted = Flight.enabled t.flight in
  (* Flight attribution brackets the whole final-meld operation; every
     member of the group (early aborts included) gets the same edge, so
     each record's wait/service chain stays gapless through decision
     time. *)
  let fm_t0 = ref 0.0 and fm_t1 = ref 0.0 in
  let result =
    if alive = 0 then begin
      if flighted then begin
        let now = Clock.now () in
        fm_t0 := now;
        fm_t1 := now
      end;
      Meld.Merged lcs_tree
    end
    else begin
      let mz = mz_hook t ~stage:`Fm in
      let t0 = Clock.now () in
      let gc0 = gc_begin t.inst in
      fm.intentions <- fm.intentions + alive;
      let r =
        Meld.meld ~mode:Meld.Final ~members:group.member_positions
          ?intention_view:group.view ?mz ~alloc:t.fm_alloc ~counters:fm
          ~intention:group.root ~state:lcs_tree ()
      in
      gc_end t.inst ~stage:`Fm gc0;
      let t1 = Clock.now () in
      fm.seconds <- fm.seconds +. (t1 -. t0);
      fm_t0 := t0;
      fm_t1 := t1;
      r
    end
  in
  let new_state, fate =
    match result with
    | Meld.Merged s -> (s, None)
    | Meld.Conflict reason -> (lcs_tree, Some reason)
  in

  if alive > 0 then begin
    let nodes = fm.nodes_visited - nodes_before in
    let per_member = float_of_int nodes /. float_of_int alive in
    List.iter
      (fun (m : Group_meld.member) ->
        Summary.add t.counters.fm_nodes_per_txn per_member;
        let effective_snap =
          match m.premeld_input with
          | Some s -> s
          | None -> State_store.seq_of_pos t.states m.intention.snapshot
        in
        let cz = float_of_int (max 0 (lcs_seq - effective_snap)) in
        Summary.add t.counters.conflict_zone cz;
        match t.inst with
        | None -> ()
        | Some i ->
            Metrics.Histogram.observe i.m_fm_nodes per_member;
            Metrics.Histogram.observe i.m_conflict_zone cz)
      group.members
  end;
  (* Decisions for every member, in sequence order; states recorded at each
     member's position so later snapshot references resolve. *)
  let decided =
    List.map
      (fun (m : Group_meld.member) ->
        match fate with
        | None -> (m, true, None, At_final_meld)
        | Some reason -> (m, false, Some reason, At_final_meld))
      group.members
    @ List.map
        (fun ((m : Group_meld.member), reason, stage) ->
          let decided_at =
            match stage with `Premeld -> At_premeld | `Group -> At_group_meld
          in
          (m, false, Some reason, decided_at))
        group.early_aborts
  in
  let decided =
    List.sort
      (fun ((a : Group_meld.member), _, _, _) (b, _, _, _) ->
        Int.compare a.seq b.seq)
      decided
  in
  List.map
    (fun ((m : Group_meld.member), committed, reason, decided_at) ->
      State_store.record t.states ~seq:m.seq ~pos:m.intention.pos new_state;
      if committed then t.counters.committed <- t.counters.committed + 1
      else t.counters.aborted <- t.counters.aborted + 1;
      (match t.inst with
      | None -> ()
      | Some i ->
          Metrics.Counter.incr (if committed then i.m_commits else i.m_aborts);
          (match reason with
          | Some (Meld.Write_conflict _) ->
              Metrics.Counter.incr i.m_aborts_write
          | Some (Meld.Read_conflict _) -> Metrics.Counter.incr i.m_aborts_read
          | Some (Meld.Phantom_conflict _) ->
              Metrics.Counter.incr i.m_aborts_phantom
          | None -> ()));
      if flighted then begin
        let pos = m.intention.pos in
        Flight.edge t.flight ~pos ~stage:Flight.Fm ~t0:!fm_t0 ~t1:!fm_t1;
        let effective_snap =
          match m.premeld_input with
          | Some s -> s
          | None -> State_store.seq_of_pos t.states m.intention.snapshot
        in
        Flight.complete t.flight ~pos ~now:!fm_t1 ~seq:m.seq ~committed
          ~reason:(match reason with None -> "" | Some r -> reason_slug r)
          ~decided_at:(decided_at_slug decided_at)
          ~conflict_zone:(max 0 (lcs_seq - effective_snap))
      end;
      {
        seq = m.seq;
        pos = m.intention.pos;
        server = m.intention.server;
        txn_seq = m.intention.txn_seq;
        committed;
        reason;
        decided_at;
      })
    decided

(* Stamp a group-meld flight edge on every member the incoming unit
   group carries (the combine's work is attributed to the member being
   folded in; the waiting members' gm time shows up as fm wait). *)
let flight_gm_edge t ~t0 ~t1 (g : Group_meld.group) =
  List.iter
    (fun (m : Group_meld.member) ->
      Flight.edge t.flight ~pos:m.intention.pos ~stage:Flight.Gm ~t0 ~t1)
    g.members;
  List.iter
    (fun ((m : Group_meld.member), _, _) ->
      Flight.edge t.flight ~pos:m.intention.pos ~stage:Flight.Gm ~t0 ~t1)
    g.early_aborts

(* Group-meld step: fold [unit_group] into the group being assembled.
   Returns the completed group when it fills (always, with group meld
   off), [None] while it is still filling. *)
let gm_step t (unit_group : Group_meld.group) =
  if t.config.group_size <= 1 then Some unit_group
  else begin
    let merged =
      match t.pending with
      | None -> unit_group
      | Some g ->
          let gm = t.counters.group_meld in
          let mz = mz_hook t ~stage:`Gm in
          let t0 = Clock.now () in
          let gc0 = gc_begin t.inst in
          let merged =
            Group_meld.combine ?mz ~alloc:t.gm_alloc ~counters:gm g unit_group
          in
          gc_end t.inst ~stage:`Gm gc0;
          let t1 = Clock.now () in
          gm.seconds <- gm.seconds +. (t1 -. t0);
          if Flight.enabled t.flight then
            flight_gm_edge t ~t0 ~t1 unit_group;
          merged
    in
    t.pending_members <- t.pending_members + 1;
    if t.pending_members >= t.config.group_size then begin
      t.pending <- None;
      t.pending_members <- 0;
      Some merged
    end
    else begin
      (* The pending group becomes the state side of the next combine,
         which needs a real tree: force a still-lazy singleton now. *)
      t.pending <- Some (force_tree t merged);
      None
    end
  end

(* Group-meld + final-meld tail, in log order.  [unit_group] is the
   single-intention group produced by the premeld stage (or the raw
   intention when premeld is off). *)
let tail t (unit_group : Group_meld.group) =
  match gm_step t unit_group with
  | Some g -> final_meld t g
  | None -> []

let group_of_outcome ~seq intention = function
  | Premeld.Unchanged i -> Group_meld.single ~seq i
  | Premeld.Premelded (i, m) -> Group_meld.single ~premeld_input:m ~seq i
  | Premeld.Dead reason -> Group_meld.dead ~seq intention reason

(* The premeld stage, against the live store. *)
let premeld t pc ~seq (intention : Intention.t) =
  let pm = t.counters.premeld in
  let mz = mz_hook t ~stage:`Pm in
  let t0 = Clock.now () in
  let gc0 = gc_begin t.inst in
  let outcome =
    Premeld.run ?mz pc ~allocs:t.pm_allocs ~counters:pm ~states:t.states ~seq
      intention
  in
  gc_end t.inst ~stage:`Pm gc0;
  let t1 = Clock.now () in
  pm.Counters.seconds <- pm.Counters.seconds +. (t1 -. t0);
  if Flight.enabled t.flight then
    Flight.edge t.flight ~pos:intention.pos ~stage:Flight.Pm ~t0 ~t1;
  outcome

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
  let unit_group =
    match t.config.premeld with
    | None -> Group_meld.single ~seq intention
    | Some pc -> group_of_outcome ~seq intention (premeld t pc ~seq intention)
  in
  tail t unit_group

(* Meld each intention right after its decode, so everything the decode
   allocated dies young. *)
let submit_wire_batch t items =
  List.concat_map (fun (pos, src) -> submit t (decode_checked t ~pos src)) items

let flush t =
  match t.pending with
  | None -> []
  | Some g ->
      t.pending <- None;
      t.pending_members <- 0;
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

let make_instruments metrics =
  Option.map
    (fun m ->
      {
        m_conflict_zone = Metrics.histogram m "pipeline_conflict_zone_intentions";
        m_fm_nodes = Metrics.histogram m "pipeline_fm_nodes_per_txn";
        m_commits = Metrics.counter m "pipeline_commits";
        m_aborts = Metrics.counter m "pipeline_aborts";
        m_aborts_write = Metrics.counter m "pipeline_aborts_write_conflict";
        m_aborts_read = Metrics.counter m "pipeline_aborts_read_conflict";
        m_aborts_phantom = Metrics.counter m "pipeline_aborts_phantom_conflict";
        m_ds_gc_minor = Metrics.fcounter m "pipeline_ds_gc_minor_words";
        m_ds_gc_promoted = Metrics.fcounter m "pipeline_ds_gc_promoted_words";
        m_pm_gc_minor = Metrics.fcounter m "pipeline_pm_gc_minor_words";
        m_pm_gc_promoted = Metrics.fcounter m "pipeline_pm_gc_promoted_words";
        m_gm_gc_minor = Metrics.fcounter m "pipeline_gm_gc_minor_words";
        m_gm_gc_promoted = Metrics.fcounter m "pipeline_gm_gc_promoted_words";
        m_fm_gc_minor = Metrics.fcounter m "pipeline_fm_gc_minor_words";
        m_fm_gc_promoted = Metrics.fcounter m "pipeline_fm_gc_promoted_words";
        m_mz_gc_minor = Metrics.fcounter m "pipeline_mz_gc_minor_words";
      })
    metrics

(* [Pipelined] is accepted only for [benchmark/], which still names it
   (see {!Runtime.backend}); every runtime runs the one scheduler. *)
let check_runtime = function
  | Runtime.Sequential | Runtime.Pipelined _ -> ()
  | Runtime.Parallel _ ->
      invalid_arg
        "Pipeline: Runtime.Parallel is not a backend (deleted; the \
         constructor remains only because benchmark/bench.ml matches it)"

let create ?(config = plain) ?(runtime = Runtime.sequential)
    ?(flight = Flight.disabled) ?metrics ~genesis () =
  check_runtime runtime;
  let pm_threads = validate_shape ~who:"create" ~config in
  {
    config;
    flight;
    inst = make_instruments metrics;
    counters = Counters.create ();
    states = State_store.create ~genesis ();
    fm_alloc = Vn.Alloc.create ~thread:0;
    pm_allocs =
      Array.init pm_threads (fun i -> Vn.Alloc.create ~thread:(i + 1));
    gm_alloc = Vn.Alloc.create ~thread:(pm_threads + 1);
    next_seq = 0;
    pending = None;
    pending_members = 0;
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

let restore ?(config = plain) ?(flight = Flight.disabled) ?metrics
    (ckpt : Checkpoint.t) =
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
    inst = make_instruments metrics;
    counters;
    states = State_store.restore ckpt.Checkpoint.store;
    fm_alloc = resume (Vn.Alloc.create ~thread:0) issued.(0);
    pm_allocs =
      Array.init pm_threads (fun i ->
          resume (Vn.Alloc.create ~thread:(i + 1)) issued.(i + 1));
    gm_alloc =
      resume (Vn.Alloc.create ~thread:(pm_threads + 1)) issued.(pm_threads + 1);
    next_seq = ckpt.Checkpoint.seq + 1;
    pending = None;
    pending_members = 0;
  }
