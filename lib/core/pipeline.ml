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

(* Short machine labels shared by the abort-reason metric counters and
   the flight-record sink (the cluster simulator uses the same slugs). *)
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
     around the stage work executed on the domain that owns the stage:
     fm on the driver (every backend), ds/pm on the driver's inline path,
     gm wherever the single gm writer runs (the driver inline, or the
     dedicated gm worker under the pipelined backend — GC counters are
     domain-local, so the worker's sample measures exactly the gm work).
     Fan-out stages (worker ds and premeld) are not sampled: several
     domains would race on one accumulator. *)
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
     total unchanged.  Driver-written only: what pipelined workers
     materialize in premeld trials and gm forcing goes unsampled like
     every other fan-out stage. *)
  m_mz_gc_minor : Metrics.Fcounter.t;
  (* Batched-handoff instruments (pipelined backend, driver-written):
     every job-ring publication and every result drain observes its size,
     so the histogram shows how well the doorbell cost amortizes. *)
  m_spsc_batch : Metrics.Histogram.t;
  m_doorbells : Metrics.Counter.t;
  m_steals : Metrics.Counter.t;
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

(* ------------------------------------------------------------------ *)
(* Pipelined backend: job/result plumbing types                         *)
(* ------------------------------------------------------------------ *)

(* A work item for the pipelined backend: a wire-form encoding still to
   be deserialized.  [psnap] is the snapshot log position peeked from the
   encoding header — it gates whether the decode can be offloaded
   (snapshot state already recorded at window start) or must wait on the
   driver for final meld to catch up. *)
type witem = { pos : int; src : string; psnap : int }

(* Stage handoff rides on pooled mutable carriers instead of per-item
   job/result variants.  A carrier cycles

     driver free list -> job ring -> worker (result fields written in
     place) -> result ring -> driver free list

   so a steady-state handoff round allocates nothing and — unlike the
   old [Rds]/[Rpm]/[Rgm] records, freshly allocated on a worker minor
   heap and promoted the moment the driver read them — never churns
   promoted words.  Each worker pair owns [qcap] carriers; the driver's
   outstanding-[<= qcap] budget doubles as the free-list availability
   proof.  The driver clears payload references when it recycles a
   carrier, so the pool pins nothing between rounds.

   Stage timestamps travel as integer nanoseconds: a float field in a
   mixed record is boxed, and re-boxing three floats per item on the
   worker would reintroduce exactly the promoted-word churn the pool
   exists to kill. *)
type ckind = Cnone | Cds | Cpm | Cgm

type carrier = {
  mutable kind : ckind;
  mutable c_idx : int;  (** window member index *)
  mutable c_seq : int;
  (* ds job input: the wire encoding *)
  mutable c_pos : int;
  mutable c_src : string;
  (* pm job input ([c_intention] doubles as the ds result output) *)
  mutable c_thread : int;
  mutable c_snap_seq : int;
  mutable c_intention : Intention.t option;
      (** ds out — [None]: the worker decode raised [Corrupt]; the
          driver redoes the decode inline so the error surfaces there *)
  (* gm job input / result output *)
  mutable c_group : Group_meld.group option;
  mutable c_completed : Group_meld.group option;
  (* result outputs *)
  mutable c_outcome : Premeld.outcome option;
  mutable c_seconds_ns : int;
  mutable c_t0_ns : int;
      (** worker-side stage start ([CLOCK_MONOTONIC] is system-wide, so
          the driver stamps flight edges from it directly) *)
  mutable c_t1_ns : int;
}

let fresh_carrier () =
  {
    kind = Cnone;
    c_idx = -1;
    c_seq = -1;
    c_pos = 0;
    c_src = "";
    c_thread = 0;
    c_snap_seq = 0;
    c_intention = None;
    c_group = None;
    c_completed = None;
    c_outcome = None;
    c_seconds_ns = 0;
    c_t0_ns = 0;
    c_t1_ns = 0;
  }

let ns_of_s s = int_of_float (s *. 1e9)
let s_of_ns n = float_of_int n *. 1e-9

let null_resolver : Codec.resolver =
 fun ~snapshot:_ ~key:_ ~vn:_ ->
  failwith "Pipeline: ds resolver used before window publication"

(* Per-window worker context.  The driver writes these fields between
   windows (before any job of the window is pushed); workers only read
   them.  Publication rides on the SPSC queue's SC-atomic indices: the
   driver's writes happen before the job push, the worker's reads after
   the pop. *)
type wctx = {
  mutable wsnap : State_store.Snapshot.t;
  wresolvers : Codec.resolver array;  (** one memoizing resolver per worker *)
}

(* Jobs staged per worker before the driver publishes them as one ring
   batch: big enough to amortize the doorbell on bursty input, small
   enough that a latency-bound trickle is not delayed (the driver flushes
   partial batches every round). *)
let flush_threshold = 8

type pctx = {
  ppool : (carrier, carrier) Runtime.Stage_pool.t;
  pdomains : int;
  qcap : int;
  outstanding : int array;
      (** jobs staged-or-submitted minus results drained, per worker;
          kept [<= qcap] so a flush and a worker's result push can never
          fail *)
  wctx : wctx;
  free : carrier array array;  (** per-worker carrier free stacks *)
  free_top : int array;
  stage_buf : carrier array array;
      (** jobs staged per worker, published as one batch on flush *)
  stage_n : int array;
  drain_buf : carrier array;  (** scratch for batched result drains *)
  mutable ds_offloaded : int;
  mutable ds_inline_n : int;
  mutable worker_ds_seconds : float;
  mutable worker_pm_seconds : float;
  mutable worker_gm_seconds : float;
  mutable max_depth : int;
  mutable handoff_batches : int;  (** job-ring publications (flushes) *)
  mutable handoff_items : int;  (** jobs published through those *)
  mutable driver_steals : int;
  mutable doorbells_seen : int;  (** scrape cursor for the wakeup counter *)
}

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
  runtime : Runtime.backend;
  flight : Flight.t;
      (** per-transaction lifecycle recorder; only ever touched by the
          driver thread — worker-domain stage timestamps ride back in
          the {!presult} messages and are stamped on result handling *)
  inst : instruments option;
  counters : Counters.t;
  states : State_store.t;
  fm_alloc : Vn.Alloc.t;
  pm_allocs : Vn.Alloc.t array;
  gm_alloc : Vn.Alloc.t;
  mutable next_seq : int;
  mutable pending : Group_meld.group option;  (** group being assembled *)
  mutable pending_members : int;
  mutable pstate : pctx option;  (** worker fabric, [Pipelined] only *)
}

let states t = t.states
let counters t = t.counters
let config t = t.config
let runtime t = t.runtime
let lcs t = State_store.latest t.states

let shutdown t =
  match t.pstate with
  | Some p -> Runtime.Stage_pool.shutdown p.ppool
  | None -> ()

let offload t =
  Option.map
    (fun (p : pctx) ->
      {
        ds_offloaded = p.ds_offloaded;
        ds_inline = p.ds_inline_n;
        worker_ds_seconds = p.worker_ds_seconds;
        worker_pm_seconds = p.worker_pm_seconds;
        worker_gm_seconds = p.worker_gm_seconds;
        max_queue_depth = p.max_depth;
        queue_capacity = p.qcap;
        handoff_batches = p.handoff_batches;
        handoff_items = p.handoff_items;
        doorbell_wakeups = Runtime.Stage_pool.doorbell_wakeups p.ppool;
        driver_steals = p.driver_steals;
      })
    t.pstate

(* Materialization ("mz") accounting helpers.  [mz_note] books an
   explicit delta; [mz_hook] builds the meld-side hook that also
   subtracts the delta from the enclosing stage bracket (which sampled
   those words too).  Both are driver-side single-writer — never hand
   the hook to a worker domain. *)
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
   next combine needs one).  [note] observes the materialization words —
   [mz_note t] on the driver, [ignore] on the gm worker (fan-out stages
   are unsampled). *)
let force_tree ~note (g : Group_meld.group) =
  match g.Group_meld.view with
  | None -> g
  | Some v ->
      let mw0 = Gc.minor_words () in
      let root = View.materialize_root v in
      note (Gc.minor_words () -. mw0);
      { g with Group_meld.root; view = None }

(* The ds parse, the one decode every pipeline stage runs: index the
   wire record in place (zero-copy) as a flyweight view.  The snapshot
   state is both the binding peer and the resolver, and nothing else is:
   meld's graft checks compare node objects physically, so a reference
   must bind to the same object on every backend, replica and GC
   schedule, and the retained state is the one source all of them share.
   The driver passes its live store; a pipelined worker passes the
   window's frozen snapshot, which answers identically.  ([by_pos] comes
   with its store rather than applied to it, so the call allocates no
   closure.)  A reference the
   state cannot answer with the recorded version is rejected as
   [Corrupt].  Nothing outlives the decode but the returned intention,
   so its wire arrays die young once it is melded. *)
let parse ~by_pos states ~resolve ~pos src =
  let peer =
    match by_pos states (Codec.peek_snapshot src) with
    | Some tree -> tree
    | None -> Node.empty
  in
  Codec.decode_lazy ~pos ~peer ~resolve src

(* ds bookkeeping, shared by the driver's decode and the pipelined
   driver's handling of a worker decode.  Only a successful parse is
   booked: a rejected intention leaves every counter as it was. *)
let ds_book t ~t0 ~t1 (i : Intention.t) =
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
  end

(* The driver's ds stage, on every backend: the parse against the live
   store, GC-sampled and booked. *)
let decode t ~pos src =
  let t0 = Clock.now () in
  let gc0 = gc_begin t.inst in
  let i =
    parse ~by_pos:State_store.by_pos t.states
      ~resolve:(State_store.resolver t.states) ~pos src
  in
  gc_end t.inst ~stage:`Ds gc0;
  ds_book t ~t0 ~t1:(Clock.now ()) i;
  i

(* The one invalid-stream error, raised by every backend: a member names
   a snapshot state the log has not recorded before it. *)
let invalid_snapshot ~pos ~snap ~lpos =
  failwith
    (Printf.sprintf
       "Pipeline.submit_wire_batch: intention at log position %d names \
        snapshot %d but only %d is recorded — invalid stream"
       pos snap lpos)

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
   folded in; the waiting members' gm time shows up as fm wait).  Driver
   thread only — the pipelined backend stamps from the returned [Cgm]
   carrier instead. *)
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
   off), [None] while it is still filling.  [on_driver] is false only on
   the pipelined backend's gm worker, which must touch neither the
   (single-writer) mz counter nor the flight recorder. *)
let gm_step t ~on_driver (unit_group : Group_meld.group) =
  if t.config.group_size <= 1 then Some unit_group
  else begin
    let merged =
      match t.pending with
      | None -> unit_group
      | Some g ->
          let gm = t.counters.group_meld in
          let mz = if on_driver then mz_hook t ~stage:`Gm else None in
          let t0 = Clock.now () in
          let gc0 = gc_begin t.inst in
          let merged =
            Group_meld.combine ?mz ~alloc:t.gm_alloc ~counters:gm g unit_group
          in
          gc_end t.inst ~stage:`Gm gc0;
          let t1 = Clock.now () in
          gm.seconds <- gm.seconds +. (t1 -. t0);
          if on_driver && Flight.enabled t.flight then
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
      let note = if on_driver then mz_note t else ignore in
      t.pending <- Some (force_tree ~note merged);
      None
    end
  end

(* Group-meld + final-meld tail: sequential in log order under every
   backend.  [unit_group] is the single-intention group produced by the
   premeld stage (or the raw intention when premeld is off). *)
let tail t (unit_group : Group_meld.group) =
  match gm_step t ~on_driver:true unit_group with
  | Some g -> final_meld t g
  | None -> []

let group_of_outcome ~seq intention = function
  | Premeld.Unchanged i -> Group_meld.single ~seq i
  | Premeld.Premelded (i, m) -> Group_meld.single ~premeld_input:m ~seq i
  | Premeld.Dead reason -> Group_meld.dead ~seq intention reason

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
  (* Premeld stage, inline (the Sequential backend's scheduler). *)
  let unit_group =
    match t.config.premeld with
    | None -> Group_meld.single ~seq intention
    | Some pc ->
        let shard =
          t.counters.premeld_shards.(Premeld.thread_for pc ~seq - 1)
        in
        let mz = mz_hook t ~stage:`Pm in
        let t0 = Clock.now () in
        let gc0 = gc_begin t.inst in
        let outcome =
          Premeld.run ?mz pc ~allocs:t.pm_allocs
            ~shards:t.counters.premeld_shards ~states:t.states ~seq intention
        in
        gc_end t.inst ~stage:`Pm gc0;
        let t1 = Clock.now () in
        shard.Counters.seconds <- shard.Counters.seconds +. (t1 -. t0);
        if flighted then
          Flight.edge t.flight ~pos:intention.pos ~stage:Flight.Pm ~t0 ~t1;
        group_of_outcome ~seq intention outcome
  in
  tail t unit_group

(* ------------------------------------------------------------------ *)
(* Premeld windows: snapshot-seq arithmetic                             *)
(* ------------------------------------------------------------------ *)

(* Per-member snapshot sequence numbers for a premeld window, exactly as
   the sequential scheduler would compute them at each member's own
   submit time.  [poss].(i) / [snaps].(i) are member [i]'s log position
   and snapshot position.  A member's snapshot position may name an
   {e earlier window member}; the sequential scheduler would see that
   member's state recorded iff its group has already completed, which is
   pure arithmetic on the group assembly state at window start.  Must be
   called before the window mutates any group state. *)
let window_snap_seqs t ~snap ~s0 ~poss ~snaps =
  let b = Array.length poss in
  let g = max 1 t.config.group_size in
  let p0 = t.pending_members in
  (* (seq, pos) of the group members already pending at window start: the
     first group completion inside the window records their states too. *)
  let pending_positions =
    match t.pending with
    | None -> [||]
    | Some grp ->
        let all =
          List.map (fun (m : Group_meld.member) -> (m.seq, m.intention.pos))
            grp.members
          @ List.map
              (fun ((m : Group_meld.member), _, _) -> (m.seq, m.intention.pos))
              grp.early_aborts
        in
        let arr = Array.of_list all in
        Array.sort (fun (a, _) (b, _) -> Int.compare a b) arr;
        arr
  in
  let snap_seqs = Array.make b (-1) in
  let visible = ref (-1) in
  (* window index of the newest member whose state is visible *)
  for i = 0 to b - 1 do
    let pos = snaps.(i) in
    let rec member_at k =
      if k < 0 then None
      else if poss.(k) <= pos then Some k
      else member_at (k - 1)
    in
    let rec pending_at k =
      if k < 0 then None
      else if snd pending_positions.(k) <= pos then
        Some (fst pending_positions.(k))
      else pending_at (k - 1)
    in
    snap_seqs.(i) <-
      (match member_at !visible with
      | Some k -> s0 + k
      | None -> (
          (* Once any group has completed inside the window, the members
             pending at window start are recorded as well. *)
          match
            if !visible >= 0 then
              pending_at (Array.length pending_positions - 1)
            else None
          with
          | Some seq -> seq
          | None -> State_store.Snapshot.seq_of_pos snap pos));
    if (p0 + i + 1) mod g = 0 then visible := i
  done;
  snap_seqs

(* ------------------------------------------------------------------ *)
(* Pipelined windows                                                    *)
(* ------------------------------------------------------------------ *)

(* The driver's decode of a wire item (held, stolen, redone or
   fallback). *)
let decode_item t w = decode t ~pos:w.pos w.src

(* Worker-side job execution.  Everything a job touches is either
   carried in the job (whose pusher no longer touches it), owned by the
   executing worker for the whole pipeline lifetime (the impersonated
   premeld threads' allocators and counter shards, the gm allocator and
   group state), or frozen per window by the driver before any job is
   pushed (snapshot, resolvers). *)
let pexec t (w : wctx) ~worker (c : carrier) =
  (match c.kind with
  | Cnone -> ()
  | Cds -> (
      let t0 = Clock.now () in
      (* Workers parse against the frozen snapshot, which answers
         exactly as the driver's live store does.  A corrupt stream is
         reported, not raised: the driver redoes the decode inline and
         raises [Corrupt] on its own thread. *)
      match
        parse ~by_pos:State_store.Snapshot.by_pos w.wsnap
          ~resolve:w.wresolvers.(worker) ~pos:c.c_pos c.c_src
      with
      | exception Codec.Corrupt _ -> c.c_intention <- None
      | i ->
          c.c_intention <- Some i;
          c.c_t0_ns <- ns_of_s t0;
          c.c_t1_ns <- ns_of_s (Clock.now ()))
  | Cpm ->
      let pc =
        match t.config.premeld with Some pc -> pc | None -> assert false
      in
      let intention =
        match c.c_intention with Some i -> i | None -> assert false
      in
      let shard = t.counters.premeld_shards.(c.c_thread - 1) in
      let t0 = Clock.now () in
      let outcome =
        Premeld.trial pc ~snap_seq:c.c_snap_seq
          ~lookup:(fun m ->
            Some (State_store.Snapshot.require w.wsnap ~stage:"premeld" m))
          ~alloc:t.pm_allocs.(c.c_thread - 1)
          ~counters:shard ~seq:c.c_seq intention
      in
      let dt = Clock.elapsed t0 in
      shard.Counters.seconds <- shard.Counters.seconds +. dt;
      c.c_outcome <- Some outcome;
      c.c_seconds_ns <- ns_of_s dt;
      c.c_t0_ns <- ns_of_s t0
  | Cgm ->
      (* Report the gm-counter delta, not a wrapper measurement, so the
         offloaded seconds subtract exactly from the stage total.  The gm
         counter is only ever touched by this worker while a window is in
         flight (every Cgm runs here), so the read is race-free.  Flight
         wall brackets are extra clock reads gated on the recorder (the
         recorder itself is driver-only; only timestamps cross back). *)
      let group = match c.c_group with Some g -> g | None -> assert false in
      let flighted = Flight.enabled t.flight in
      let ft0 = if flighted then Clock.now () else 0.0 in
      let s0 = t.counters.group_meld.Counters.seconds in
      let completed = gm_step t ~on_driver:false group in
      let ft1 = if flighted then Clock.now () else 0.0 in
      c.c_completed <- completed;
      c.c_seconds_ns <-
        ns_of_s (t.counters.group_meld.Counters.seconds -. s0);
      c.c_t0_ns <- ns_of_s ft0;
      c.c_t1_ns <- ns_of_s ft1);
  c

(* Run one window of work items through the staged pipeline:

     ds (workers)  ->  pm (workers, sharded by paper thread)
                   ->  gm (one dedicated worker, global log order)
                   ->  fm (the driver, log order)

   Stage assignment is a pure function of log position: the decode of
   item [i] runs on worker [i mod domains], premeld thread [k]'s trials
   run in seq order on worker [(k-1) mod domains], and every gm combine
   runs on worker [domains-1] in log order.  The bounded SPSC queues
   reorder wall-clock only: the driver releases pm jobs per thread in
   seq order (after the member's decode lands) and gm jobs in global
   order (after the member's premeld lands), so consumption order — and
   with it every allocator stream and counter — is independent of
   arrival timing. *)
let run_pipelined_window t (px : pctx) (window : witem array) =
  let b = Array.length window in
  let s0 = t.next_seq in
  t.next_seq <- s0 + b;
  let pool = px.ppool in
  let domains = px.pdomains in
  let qcap = px.qcap in
  let gm_worker = domains - 1 in
  let flighted = Flight.enabled t.flight in
  (* One shared clock read opens every member's flight record at window
     entry: time spent queued before a stage releases (SPSC residency,
     snapshot-lag holds) then lands in that stage's wait column. *)
  if flighted then begin
    let now = Clock.now () in
    Array.iter (fun w -> Flight.touch t.flight ~pos:w.pos ~now) window
  end;
  (* Freeze the retention window and publish per-worker resolvers before
     any job of this window is pushed. *)
  let snap = State_store.snapshot t.states in
  px.wctx.wsnap <- snap;
  for w = 0 to domains - 1 do
    px.wctx.wresolvers.(w) <- State_store.Snapshot.resolver ~stage:"ds" snap
  done;
  let _, latest_pos0 = State_store.Snapshot.latest snap in
  let snap_seqs =
    match t.config.premeld with
    | None -> [||]
    | Some _ ->
        window_snap_seqs t ~snap ~s0
          ~poss:(Array.map (fun w -> w.pos) window)
          ~snaps:(Array.map (fun w -> w.psnap) window)
  in
  let intentions = Array.make b None in
  let outcomes = Array.make b None in
  (* ds classification: wire items whose snapshot state was recorded at
     window start are offloadable; the rest wait on the driver until
     final meld inside this window records their snapshot state. *)
  let ds_jobs = Array.make domains [] in
  let held = ref [] in
  for i = b - 1 downto 0 do
    if window.(i).psnap <= latest_pos0 then
      ds_jobs.(i mod domains) <- i :: ds_jobs.(i mod domains)
    else held := i :: !held
  done;
  (* Premeld release state: per paper thread, the member indexes still to
     premeld, in seq order (head-of-line: a thread's next trial is only
     released once its member is decoded, keeping that thread's allocator
     stream in seq order on its owning worker). *)
  let pm_pending =
    match t.config.premeld with
    | None -> [||]
    | Some pc ->
        let bt = Array.make pc.Premeld.threads [] in
        for i = b - 1 downto 0 do
          let th = Premeld.thread_for pc ~seq:(s0 + i) in
          bt.(th - 1) <- i :: bt.(th - 1)
        done;
        bt
  in
  let gm_next = ref 0 in
  let ds_failed = ref [] in
  let rgm = ref 0 in
  let decisions = ref [] in
  let progress = ref false in
  (* Premeld jobs in flight per paper thread: stealing a thread's
     head-of-line trial is only safe while this is zero (the allocator
     stream must stay in seq order). *)
  let pm_inflight = Array.make (max 1 (Array.length pm_pending)) 0 in
  let inst = t.inst in
  let observe_batch n =
    match inst with
    | None -> ()
    | Some i -> Metrics.Histogram.observe i.m_spsc_batch (float_of_int n)
  in
  (* Pooled-carrier handoff: [take] pops worker [w]'s free stack (the
     outstanding budget proves it is never empty when a release gate
     passes), [put] stages the filled carrier for the next flush, and
     [flush] publishes every staged job with one ring publication and at
     most one doorbell.  Nothing in this path allocates. *)
  let take w =
    let top = px.free_top.(w) - 1 in
    px.free_top.(w) <- top;
    px.free.(w).(top)
  in
  let recycle w (c : carrier) =
    c.kind <- Cnone;
    c.c_src <- "";
    c.c_intention <- None;
    c.c_group <- None;
    c.c_completed <- None;
    c.c_outcome <- None;
    px.free.(w).(px.free_top.(w)) <- c;
    px.free_top.(w) <- px.free_top.(w) + 1
  in
  let flush w =
    let n = px.stage_n.(w) in
    if n > 0 then begin
      let accepted =
        Runtime.Stage_pool.submit_batch pool ~worker:w px.stage_buf.(w) ~len:n
      in
      if accepted <> n then
        failwith "Pipeline: stage pool job queue unexpectedly full";
      px.stage_n.(w) <- 0;
      px.handoff_batches <- px.handoff_batches + 1;
      px.handoff_items <- px.handoff_items + n;
      observe_batch n
    end
  in
  let flush_all () =
    for w = 0 to domains - 1 do
      flush w
    done
  in
  let put ~worker c =
    px.stage_buf.(worker).(px.stage_n.(worker)) <- c;
    px.stage_n.(worker) <- px.stage_n.(worker) + 1;
    px.outstanding.(worker) <- px.outstanding.(worker) + 1;
    if px.outstanding.(worker) > px.max_depth then
      px.max_depth <- px.outstanding.(worker);
    progress := true;
    if px.stage_n.(worker) >= flush_threshold then flush worker
  in
  let release_ds () =
    for w = 0 to domains - 1 do
      let rec go () =
        match ds_jobs.(w) with
        | i :: rest when px.outstanding.(w) < qcap ->
            let c = take w in
            c.kind <- Cds;
            c.c_idx <- i;
            c.c_pos <- window.(i).pos;
            c.c_src <- window.(i).src;
            put ~worker:w c;
            px.ds_offloaded <- px.ds_offloaded + 1;
            ds_jobs.(w) <- rest;
            go ()
        | _ -> ()
      in
      go ()
    done
  in
  let release_pm () =
    for k = 0 to Array.length pm_pending - 1 do
      let w = k mod domains in
      let rec go () =
        match pm_pending.(k) with
        | i :: rest when px.outstanding.(w) < qcap -> (
            match intentions.(i) with
            | Some _ ->
                let c = take w in
                c.kind <- Cpm;
                c.c_idx <- i;
                c.c_seq <- s0 + i;
                c.c_thread <- k + 1;
                c.c_snap_seq <- snap_seqs.(i);
                c.c_intention <- intentions.(i);
                put ~worker:w c;
                pm_inflight.(k) <- pm_inflight.(k) + 1;
                pm_pending.(k) <- rest;
                go ()
            | None -> ())
        | _ -> ()
      in
      go ()
    done
  in
  let release_gm () =
    let rec go () =
      if !gm_next < b && px.outstanding.(gm_worker) < qcap then begin
        let i = !gm_next in
        let unit_group =
          match t.config.premeld with
          | Some _ -> (
              match (outcomes.(i), intentions.(i)) with
              | Some o, Some intent ->
                  Some (group_of_outcome ~seq:(s0 + i) intent o)
              | _ -> None)
          | None -> (
              match intentions.(i) with
              | Some intent -> Some (Group_meld.single ~seq:(s0 + i) intent)
              | None -> None)
        in
        match unit_group with
        | Some _ ->
            let c = take gm_worker in
            c.kind <- Cgm;
            c.c_idx <- i;
            c.c_group <- unit_group;
            put ~worker:gm_worker c;
            incr gm_next;
            go ()
        | None when List.mem i !ds_failed ->
            (* A failed worker decode surfaces once the log-order tail
               reaches it, so every earlier member is decoded and booked
               when it raises, as under [seq].  The driver resolves
               against the same state as the worker, so its redo raises
               the same [Corrupt], now on the driver's thread. *)
            ds_failed := List.filter (fun j -> j <> i) !ds_failed;
            intentions.(i) <- Some (decode_item t window.(i));
            progress := true
        | None -> ()
      end
    in
    go ()
  in
  (* Inline-decode held-back wire items whose snapshot state final meld
     has recorded since window start (in log order: the head unlocks
     first in any valid stream). *)
  let release_held () =
    let rec go () =
      match !held with
      | i :: rest ->
          let _, lpos, _ = State_store.latest t.states in
          if window.(i).psnap <= lpos then begin
            intentions.(i) <- Some (decode_item t window.(i));
            px.ds_inline_n <- px.ds_inline_n + 1;
            held := rest;
            progress := true;
            go ()
          end
      | [] -> ()
    in
    go ()
  in
  let pos_of idx = window.(idx).pos in
  let handle (c : carrier) =
    match c.kind with
    | Cnone -> ()
    | Cds -> (
        match c.c_intention with
        | Some i ->
            intentions.(c.c_idx) <- c.c_intention;
            let t0 = s_of_ns c.c_t0_ns and t1 = s_of_ns c.c_t1_ns in
            ds_book t ~t0 ~t1 i;
            px.worker_ds_seconds <- px.worker_ds_seconds +. (t1 -. t0)
        | None ->
            (* The worker decode failed; [release_gm] redoes it inline. *)
            ds_failed := c.c_idx :: !ds_failed;
            px.ds_offloaded <- px.ds_offloaded - 1;
            px.ds_inline_n <- px.ds_inline_n + 1)
    | Cpm ->
        outcomes.(c.c_idx) <- c.c_outcome;
        pm_inflight.(c.c_thread - 1) <- pm_inflight.(c.c_thread - 1) - 1;
        let seconds = s_of_ns c.c_seconds_ns in
        px.worker_pm_seconds <- px.worker_pm_seconds +. seconds;
        if flighted then begin
          let t0 = s_of_ns c.c_t0_ns in
          Flight.edge t.flight ~pos:(pos_of c.c_idx) ~stage:Flight.Pm ~t0
            ~t1:(t0 +. seconds)
        end
    | Cgm -> (
        incr rgm;
        px.worker_gm_seconds <- px.worker_gm_seconds +. s_of_ns c.c_seconds_ns;
        if flighted then
          Flight.edge t.flight ~pos:(pos_of c.c_idx) ~stage:Flight.Gm
            ~t0:(s_of_ns c.c_t0_ns) ~t1:(s_of_ns c.c_t1_ns);
        match c.c_completed with
        | Some g -> decisions := List.rev_append (final_meld t g) !decisions
        | None -> ())
  in
  (* Driver work-stealing: called when a scheduling round neither drained
     a result nor released a job but work is still in flight — instead of
     parking, inline the oldest queued ds or pm item.  Steals only come
     off driver-owned backlog lists (never the rings), ds steals reuse
     the inline decode path (already bit-identical by the held-item
     argument), and a pm steal requires its paper thread quiescent, so
     stage assignment stays a pure function of log position and every
     allocator stream keeps its seq order. *)
  let steal () =
    let bw = ref (-1) and bi = ref max_int in
    for w = 0 to domains - 1 do
      match ds_jobs.(w) with
      | i :: _ when i < !bi ->
          bi := i;
          bw := w
      | _ -> ()
    done;
    if !bw >= 0 then begin
      intentions.(!bi) <- Some (decode_item t window.(!bi));
      ds_jobs.(!bw) <- List.tl ds_jobs.(!bw);
      px.ds_inline_n <- px.ds_inline_n + 1;
      px.driver_steals <- px.driver_steals + 1;
      (match inst with None -> () | Some m -> Metrics.Counter.incr m.m_steals);
      progress := true;
      true
    end
    else begin
      let bk = ref (-1) in
      bi := max_int;
      for k = 0 to Array.length pm_pending - 1 do
        match pm_pending.(k) with
        | i :: _
          when i < !bi && pm_inflight.(k) = 0 && Option.is_some intentions.(i)
          ->
            bi := i;
            bk := k
        | _ -> ()
      done;
      if !bk < 0 then false
      else begin
        let k = !bk and i = !bi in
        let pc =
          match t.config.premeld with Some pc -> pc | None -> assert false
        in
        let intent =
          match intentions.(i) with Some x -> x | None -> assert false
        in
        let shard = t.counters.premeld_shards.(k) in
        let t0 = Clock.now () in
        let outcome =
          Premeld.trial pc ~snap_seq:snap_seqs.(i)
            ~lookup:(fun m ->
              Some
                (State_store.Snapshot.require px.wctx.wsnap ~stage:"premeld" m))
            ~alloc:t.pm_allocs.(k) ~counters:shard ~seq:(s0 + i) intent
        in
        let dt = Clock.elapsed t0 in
        shard.Counters.seconds <- shard.Counters.seconds +. dt;
        outcomes.(i) <- Some outcome;
        pm_pending.(k) <- List.tl pm_pending.(k);
        px.driver_steals <- px.driver_steals + 1;
        (match inst with
        | None -> ()
        | Some m -> Metrics.Counter.incr m.m_steals);
        if flighted then
          Flight.edge t.flight ~pos:(pos_of i) ~stage:Flight.Pm ~t0
            ~t1:(t0 +. dt);
        progress := true;
        true
      end
    end
  in
  while !rgm < b do
    (* Sample the doorbell before draining so a result pushed after the
       final drain pass makes the park below return immediately. *)
    let seen = Runtime.Stage_pool.events pool in
    progress := false;
    for w = 0 to domains - 1 do
      let n =
        Runtime.Stage_pool.result_batch pool ~worker:w px.drain_buf ~max:qcap
      in
      if n > 0 then begin
        observe_batch n;
        for i = 0 to n - 1 do
          let c = px.drain_buf.(i) in
          px.outstanding.(w) <- px.outstanding.(w) - 1;
          handle c;
          recycle w c
        done;
        progress := true
      end
    done;
    release_held ();
    release_pm ();
    release_gm ();
    release_ds ();
    (* Partial batches must reach the rings before this round can decide
       to park — staged-but-unpublished work never wakes a worker. *)
    flush_all ();
    if (not !progress) && !rgm < b then begin
      let in_flight = Array.fold_left ( + ) 0 px.outstanding in
      if in_flight > 0 then begin
        if not (steal ()) then Runtime.Stage_pool.wait pool ~seen
      end
      else
        (* Nothing in flight and nothing releasable: the stream is
           invalid (a member names a snapshot state the log never
           records before it).  Name the starved member. *)
        match !held with
        | i :: _ ->
            let _, lpos, _ = State_store.latest t.states in
            invalid_snapshot ~pos:window.(i).pos ~snap:window.(i).psnap ~lpos
        | [] ->
            failwith
              "Pipeline: pipelined window stalled with no work in flight"
    end
  done;
  (* One counter scrape per window keeps the doorbell metric hot-path
     free: the wakeup totals live in plain producer-written fields. *)
  (match inst with
  | None -> ()
  | Some i ->
      let db = Runtime.Stage_pool.doorbell_wakeups pool in
      Metrics.Counter.incr ~by:(db - px.doorbells_seen) i.m_doorbells;
      px.doorbells_seen <- db);
  List.rev !decisions

(* Cut a stream of work items into safe windows and run each through the
   staged pipeline.  The window bound: every member's designated premeld
   input state must already be recorded at window start (states lag
   submissions by the group members still being assembled, so the window
   shrinks by [pending_members]).  Windows are drained completely before
   the next starts — cross-window pipelining would require premelding
   against states the previous window has not recorded yet. *)
let run_pipelined t (px : pctx) (items : witem array) =
  let n = Array.length items in
  let decisions = ref [] in
  let off = ref 0 in
  while !off < n do
    let cap =
      match t.config.premeld with
      | Some pc ->
          (pc.Premeld.threads * pc.Premeld.distance) + 1 - t.pending_members
      | None -> 64
    in
    if cap < 1 then begin
      (* Pathological config (group_size > threads*distance + 1): no
         window is safe, fall back to the inline scheduler for one item
         and retry. *)
      let w = items.(!off) in
      let _, lpos, _ = State_store.latest t.states in
      if w.psnap > lpos then invalid_snapshot ~pos:w.pos ~snap:w.psnap ~lpos;
      let i = decode_item t w in
      px.ds_inline_n <- px.ds_inline_n + 1;
      decisions := List.rev_append (submit t i) !decisions;
      incr off
    end
    else begin
      let b = min cap (n - !off) in
      let window = Array.sub items !off b in
      decisions := List.rev_append (run_pipelined_window t px window) !decisions;
      off := !off + b
    end
  done;
  List.rev !decisions

let submit_wire_batch t (items : (int * string) list) =
  match t.pstate with
  | Some px ->
      run_pipelined t px
        (Array.of_list
           (List.map
              (fun (pos, src) -> { pos; src; psnap = Codec.peek_snapshot src })
              items))
  | None ->
      (* Meld each intention right after its decode, so everything the
         decode allocated dies young.  An intention's snapshot must be
         recorded before it can decode; checking each item against the
         states its predecessors recorded accepts exactly the streams the
         pipelined windows accept. *)
      List.concat_map
        (fun (pos, src) ->
          let _, lpos, _ = State_store.latest t.states in
          let snap = Codec.peek_snapshot src in
          if snap > lpos then invalid_snapshot ~pos ~snap ~lpos;
          submit t (decode t ~pos src))
        items

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
   premeld thread count. *)
let validate_shape ~who ~config =
  if config.group_size < 1 then
    invalid_arg (Printf.sprintf "Pipeline.%s: group_size" who);
  (match config.premeld with
  | Some { Premeld.threads; distance } when threads < 1 || distance < 1 ->
      invalid_arg (Printf.sprintf "Pipeline.%s: premeld config" who)
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
        m_spsc_batch = Metrics.histogram m "spsc_batch_size";
        m_doorbells = Metrics.counter m "spsc_doorbell_wakeups_total";
        m_steals = Metrics.counter m "driver_steals_total";
      })
    metrics

let attach_pstate t runtime =
  match runtime with
  | Runtime.Pipelined { domains } ->
      let wctx =
        {
          wsnap = State_store.snapshot t.states;
          wresolvers = Array.make domains null_resolver;
        }
      in
      let dummy = fresh_carrier () in
      let pool =
        Runtime.Stage_pool.create ~queue:32 ~domains ~dummy_job:dummy
          ~dummy_result:dummy
          ~exec:(fun ~worker c -> pexec t wctx ~worker c)
          ()
      in
      let qcap = Runtime.Stage_pool.queue_capacity pool in
      t.pstate <-
        Some
          {
            ppool = pool;
            pdomains = domains;
            qcap;
            outstanding = Array.make domains 0;
            wctx;
            (* qcap carriers per worker pair: since staged + in-flight
               never exceeds qcap, a release gate passing implies a free
               carrier. *)
            free =
              Array.init domains (fun _ ->
                  Array.init qcap (fun _ -> fresh_carrier ()));
            free_top = Array.make domains qcap;
            stage_buf = Array.init domains (fun _ -> Array.make qcap dummy);
            stage_n = Array.make domains 0;
            drain_buf = Array.make qcap dummy;
            ds_offloaded = 0;
            ds_inline_n = 0;
            worker_ds_seconds = 0.0;
            worker_pm_seconds = 0.0;
            worker_gm_seconds = 0.0;
            max_depth = 0;
            handoff_batches = 0;
            handoff_items = 0;
            driver_steals = 0;
            doorbells_seen = 0;
          }
  | Runtime.Sequential -> ()
  | Runtime.Parallel _ ->
      invalid_arg
        "Pipeline: Runtime.Parallel is not a backend (deleted; the \
         constructor remains only because benchmark/bench.ml matches it)"

let create ?(config = plain) ?(runtime = Runtime.sequential)
    ?(flight = Flight.disabled) ?metrics ~genesis () =
  let pm_threads = validate_shape ~who:"create" ~config in
  let t =
    {
      config;
      runtime;
      flight;
      inst = make_instruments metrics;
      counters = Counters.create ~premeld_shards:(max 1 pm_threads) ();
      states = State_store.create ~genesis ();
      fm_alloc = Vn.Alloc.create ~thread:0;
      pm_allocs =
        Array.init pm_threads (fun i -> Vn.Alloc.create ~thread:(i + 1));
      gm_alloc = Vn.Alloc.create ~thread:(pm_threads + 1);
      next_seq = 0;
      pending = None;
      pending_members = 0;
      pstate = None;
    }
  in
  attach_pstate t runtime;
  t

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

let restore ?(config = plain) ?(runtime = Runtime.sequential)
    ?(flight = Flight.disabled) ?metrics (ckpt : Checkpoint.t) =
  let pm_threads = validate_shape ~who:"restore" ~config in
  if Array.length ckpt.Checkpoint.alloc_issued <> pm_threads + 2 then
    invalid_arg
      (Printf.sprintf
         "Pipeline.restore: checkpoint has %d allocator cursors but this \
          config needs %d (captured under a different premeld config)"
         (Array.length ckpt.Checkpoint.alloc_issued)
         (pm_threads + 2));
  let counters = Counters.copy ckpt.Checkpoint.counters in
  if Array.length counters.Counters.premeld_shards <> max 1 pm_threads then
    invalid_arg
      "Pipeline.restore: checkpoint counter shards do not match this config";
  let resume alloc issued =
    Vn.Alloc.resume alloc ~issued;
    alloc
  in
  let issued = ckpt.Checkpoint.alloc_issued in
  let t =
    {
      config;
      runtime;
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
      pstate = None;
    }
  in
  attach_pstate t runtime;
  t
