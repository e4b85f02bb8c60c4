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
   encoding header: its decode is released once the live store has
   recorded that position. *)
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
  mutable c_idx : int;  (** batch item index *)
  mutable c_seq : int;
  (* ds job input: the wire encoding *)
  mutable c_pos : int;
  mutable c_src : string;
  (* ds job input: the snapshot tree; pm job input: the designated input
     state ([Node.empty] when premeld has nothing to do) *)
  mutable c_tree : Tree.t;
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
    c_tree = Node.empty;
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

(* A decode is dealt to a worker only while fewer than [ds_depth] jobs
   are outstanding on it: one running and one queued keep the worker busy
   across the driver's round trip.  Releasable decodes beyond that stay
   in the driver's backlog, where the driver steals them instead of
   parking — a decode queued on a ring could not be taken back. *)
let ds_depth = 2

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
   The driver resolves through its live store; a pipelined worker
   through the snapshot tree the driver looked up in that store and
   carried with the job, which answers identically.  A reference the
   state cannot answer with the recorded version is rejected as
   [Corrupt].  Nothing outlives the decode but the returned intention,
   so its wire arrays die young once it is melded. *)
let parse ~peer ~resolve ~pos src = Codec.decode_lazy ~pos ~peer ~resolve src

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
  let peer =
    match State_store.by_pos t.states (Codec.peek_snapshot src) with
    | Some tree -> tree
    | None -> Node.empty
  in
  let i = parse ~peer ~resolve:(State_store.resolver t.states) ~pos src in
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

(* The ds stage as the sequential scheduler runs it: an intention
   decodes only once the log has recorded its snapshot state.  Every
   decode the pipelined driver runs itself goes through it too. *)
let decode_checked t ~pos src =
  let _, lpos, _ = State_store.latest t.states in
  let snap = Codec.peek_snapshot src in
  if snap > lpos then invalid_snapshot ~pos ~snap ~lpos;
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

(* The premeld stage on the driver, against the live store: the
   sequential scheduler's, and the pipelined driver's when it runs a
   blocked premeld itself. *)
let premeld t pc ~seq (intention : Intention.t) =
  let shard = t.counters.premeld_shards.(Premeld.thread_for pc ~seq - 1) in
  let mz = mz_hook t ~stage:`Pm in
  let t0 = Clock.now () in
  let gc0 = gc_begin t.inst in
  let outcome =
    Premeld.run ?mz pc ~allocs:t.pm_allocs ~shards:t.counters.premeld_shards
      ~states:t.states ~seq intention
  in
  gc_end t.inst ~stage:`Pm gc0;
  let t1 = Clock.now () in
  shard.Counters.seconds <- shard.Counters.seconds +. (t1 -. t0);
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

(* ------------------------------------------------------------------ *)
(* Pipelined backend                                                    *)
(* ------------------------------------------------------------------ *)

(* Worker-side job execution.  Everything a job touches is either
   carried in the job (whose pusher no longer touches it: the wire
   bytes, the snapshot or input tree, the snapshot sequence number) or
   owned by the executing worker for the whole pipeline lifetime (its
   ds resolver slot, the impersonated premeld threads' allocators and
   counter shards, the gm allocator and group state).  Workers never
   read the state store. *)
let pexec t ~trees ~resolvers ~worker (c : carrier) =
  (match c.kind with
  | Cnone -> ()
  | Cds ->
      let t0 = Clock.now () in
      (* Workers parse against the carried snapshot tree, which answers
         exactly as the driver's live store does.  A corrupt stream is
         reported, not raised: the driver redoes the decode inline and
         raises [Corrupt] on its own thread. *)
      trees.(worker) <- c.c_tree;
      (match
         parse ~peer:c.c_tree ~resolve:resolvers.(worker) ~pos:c.c_pos c.c_src
       with
      | exception Codec.Corrupt _ -> c.c_intention <- None
      | i ->
          c.c_intention <- Some i;
          c.c_t0_ns <- ns_of_s t0;
          c.c_t1_ns <- ns_of_s (Clock.now ()));
      trees.(worker) <- Node.empty
  | Cpm ->
      let pc =
        match t.config.premeld with Some pc -> pc | None -> assert false
      in
      let intention =
        match c.c_intention with Some i -> i | None -> assert false
      in
      let shard = t.counters.premeld_shards.(c.c_thread - 1) in
      let input = c.c_tree in
      let t0 = Clock.now () in
      let outcome =
        Premeld.trial pc ~snap_seq:c.c_snap_seq
          ~lookup:(fun _ -> Some input)
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
         counter is only ever touched by this worker while a batch is in
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

(* Run a batch of work items through the staged pipeline:

     ds (workers)  ->  pm (workers, sharded by paper thread)
                   ->  gm (one dedicated worker, global log order)
                   ->  fm (the driver, log order)

   Stage assignment is a pure function of log position: the decode of
   item [i] runs on worker [i mod domains], premeld thread [k]'s trials
   run in seq order on worker [(k-1) mod domains], and every gm combine
   runs on worker [domains-1] in log order.  Each item's next stage is
   released as soon as its own inputs are recorded in the live store,
   and the job carries those inputs:

   - ds of item [i] once its snapshot position is recorded, with the
     snapshot tree (dealt to its worker while [ds_depth] allows, else
     left in the backlog the driver steals from);
   - pm of item [i], next in its paper thread's seq order, once it is
     decoded and its designated input state either precedes its snapshot
     or is recorded, with that state and the snapshot's sequence number;
   - gm and fm in log order.

   Every one of those inputs is stable once recorded (final meld only
   appends states at later positions), so it equals what the sequential
   scheduler reads at the item's own submit, and the SPSC rings reorder
   wall-clock only.  When nothing is in flight and nothing can be
   released, the gm head's blocked stage runs on the driver through the
   sequential code, which raises the one invalid-stream error. *)
let run_batch t (px : pctx) (items : witem array) =
  let b = Array.length items in
  let s0 = t.next_seq in
  t.next_seq <- s0 + b;
  let pool = px.ppool in
  let domains = px.pdomains in
  let qcap = px.qcap in
  let gm_worker = domains - 1 in
  let flighted = Flight.enabled t.flight in
  (* One shared clock read opens every item's flight record at batch
     entry: time spent queued before a stage releases (SPSC residency,
     waits on an input state) then lands in that stage's wait column. *)
  if flighted then begin
    let now = Clock.now () in
    Array.iter (fun w -> Flight.touch t.flight ~pos:w.pos ~now) items
  end;
  let intentions = Array.make b None in
  let outcomes = Array.make b None in
  (* [ds_failed.(i)]: item [i]'s decode raised ahead of the log-order
     tail; [release_gm] redoes it when it reaches [i]. *)
  let ds_failed = Array.make b false in
  (* Release cursors: worker [w] decodes items [w], [w + domains], ...;
     paper thread [k+1] premelds the items whose seq is [k] modulo the
     thread count, in seq order. *)
  let ds_next = Array.init domains Fun.id in
  let pm_threads =
    match t.config.premeld with Some pc -> pc.Premeld.threads | None -> 0
  in
  let pm_next =
    Array.init pm_threads (fun k ->
        (((k - s0) mod pm_threads) + pm_threads) mod pm_threads)
  in
  let gm_next = ref 0 in
  let rgm = ref 0 in
  let decisions = ref [] in
  let progress = ref false in
  (* (seq, pos) of the newest recorded state, re-read after every drain *)
  let lseq = ref (-1) and lpos = ref (-1) in
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
    c.c_tree <- Node.empty;
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
      px.handoff_items <- px.handoff_items + n
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
  let decode_item i = decode_checked t ~pos:items.(i).pos items.(i).src in
  (* The driver's decode of item [i] ahead of the log-order tail.  A
     rejected intention is deferred, like a worker's, to the redo at the
     gm head, so it raises once every earlier intention has decoded, as
     under [seq]. *)
  let decode_ahead i =
    (match decode_item i with
    | intention -> intentions.(i) <- Some intention
    | exception (Codec.Corrupt _ | Failure _) -> ds_failed.(i) <- true);
    ds_next.(i mod domains) <- i + domains;
    px.ds_inline_n <- px.ds_inline_n + 1;
    progress := true
  in
  let ds_ready i = i < b && items.(i).psnap <= !lpos in
  let release_ds () =
    for w = 0 to domains - 1 do
      let rec go () =
        let i = ds_next.(w) in
        if ds_ready i && px.outstanding.(w) < ds_depth then begin
          (match State_store.by_pos t.states items.(i).psnap with
          | Some tree ->
              let c = take w in
              c.kind <- Cds;
              c.c_idx <- i;
              c.c_pos <- items.(i).pos;
              c.c_src <- items.(i).src;
              c.c_tree <- tree;
              put ~worker:w c;
              px.ds_offloaded <- px.ds_offloaded + 1;
              ds_next.(w) <- i + domains
          | None -> decode_ahead i);
          go ()
        end
      in
      go ()
    done
  in
  let release_pm pc =
    for k = 0 to pm_threads - 1 do
      let w = k mod domains in
      let rec go () =
        let i = pm_next.(k) in
        if i < b && px.outstanding.(w) < qcap then
          match intentions.(i) with
          | Some intention ->
              let seq = s0 + i in
              let m = Premeld.input_seq pc ~seq in
              let snap_seq =
                State_store.seq_of_pos t.states intention.Intention.snapshot
              in
              if m <= snap_seq || m <= !lseq then begin
                let c = take w in
                c.kind <- Cpm;
                c.c_idx <- i;
                c.c_seq <- seq;
                c.c_thread <- k + 1;
                c.c_snap_seq <- snap_seq;
                c.c_intention <- intentions.(i);
                c.c_tree <-
                  (if m <= snap_seq then Node.empty
                   else State_store.require t.states ~stage:"premeld" m);
                put ~worker:w c;
                pm_next.(k) <- i + pm_threads;
                go ()
              end
          | None -> ()
      in
      go ()
    done
  in
  let release_gm () =
    let rec go () =
      let i = !gm_next in
      if i < b && px.outstanding.(gm_worker) < qcap then begin
        let unit_group =
          match (t.config.premeld, intentions.(i)) with
          | _, None -> None
          | None, Some intention ->
              Some (Group_meld.single ~seq:(s0 + i) intention)
          | Some _, Some intention ->
              Option.map (group_of_outcome ~seq:(s0 + i) intention) outcomes.(i)
        in
        match unit_group with
        | Some _ ->
            (* The job carries the item from here on.  Dropping the
               driver's references lets its decode and premeld output
               die young instead of living until the batch returns. *)
            intentions.(i) <- None;
            outcomes.(i) <- None;
            let c = take gm_worker in
            c.kind <- Cgm;
            c.c_idx <- i;
            c.c_group <- unit_group;
            put ~worker:gm_worker c;
            incr gm_next;
            go ()
        | None when ds_failed.(i) ->
            (* A failed decode surfaces once the log-order tail reaches
               it, so every earlier member is decoded and booked when it
               raises, as under [seq].  The driver resolves against the
               same state as the worker, so its redo raises the same
               error, now on the driver's thread. *)
            ds_failed.(i) <- false;
            intentions.(i) <- Some (decode_item i);
            progress := true
        | None -> ()
      end
    in
    go ()
  in
  let pos_of idx = items.(idx).pos in
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
            ds_failed.(c.c_idx) <- true;
            px.ds_offloaded <- px.ds_offloaded - 1;
            px.ds_inline_n <- px.ds_inline_n + 1)
    | Cpm ->
        outcomes.(c.c_idx) <- c.c_outcome;
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
     parking, decode the oldest releasable item left in the backlog.
     Steals reuse the driver's decode against the live store, which
     answers exactly as the carried snapshot tree would. *)
  let steal () =
    let best = ref b in
    for w = 0 to domains - 1 do
      let i = ds_next.(w) in
      if i < !best && ds_ready i then best := i
    done;
    !best < b
    && begin
         decode_ahead !best;
         px.driver_steals <- px.driver_steals + 1;
         true
       end
  in
  (* Nothing in flight and nothing releasable: every item before the gm
     head has reached final meld, so the store holds exactly what the
     sequential scheduler holds at the head's submit, and the head's
     blocked stage runs through the sequential code.  In a valid stream
     only a decode can be blocked there ([validate_shape] bounds the
     group size so the head's premeld input is always recorded), and
     [decode_checked] raises the invalid-stream error. *)
  let run_stalled_head () =
    let i = !gm_next in
    match (intentions.(i), t.config.premeld) with
    | None, _ ->
        intentions.(i) <- Some (decode_item i);
        ds_next.(i mod domains) <- i + domains;
        px.ds_inline_n <- px.ds_inline_n + 1
    | Some intention, Some pc ->
        outcomes.(i) <- Some (premeld t pc ~seq:(s0 + i) intention);
        pm_next.((s0 + i) mod pm_threads) <- i + pm_threads
    | Some _, None -> assert false
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
        for i = 0 to n - 1 do
          let c = px.drain_buf.(i) in
          px.outstanding.(w) <- px.outstanding.(w) - 1;
          handle c;
          recycle w c
        done;
        progress := true
      end
    done;
    (let s, p, _ = State_store.latest t.states in
     lseq := s;
     lpos := p);
    Option.iter release_pm t.config.premeld;
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
      else run_stalled_head ()
    end
  done;
  List.rev !decisions

let submit_wire_batch t (items : (int * string) list) =
  match t.pstate with
  | Some px ->
      run_batch t px
        (Array.of_list
           (List.map
              (fun (pos, src) -> { pos; src; psnap = Codec.peek_snapshot src })
              items))
  | None ->
      (* Meld each intention right after its decode, so everything the
         decode allocated dies young. *)
      List.concat_map
        (fun (pos, src) -> submit t (decode_checked t ~pos src))
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

let attach_pstate t runtime =
  match runtime with
  | Runtime.Pipelined { domains } ->
      (* Worker [w]'s ds resolver answers from [trees.(w)], the snapshot
         tree of the decode it is running; only worker [w] touches
         either slot. *)
      let trees = Array.make domains Node.empty in
      let resolvers =
        Array.init domains (fun w ~snapshot:_ ~key ~vn:_ ->
            match Tree.find trees.(w) key with
            | Some n -> n
            | None -> Node.empty)
      in
      let dummy = fresh_carrier () in
      let pool =
        Runtime.Stage_pool.create ~queue:32 ~domains ~dummy_job:dummy
          ~dummy_result:dummy
          ~exec:(fun ~worker c -> pexec t ~trees ~resolvers ~worker c)
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
