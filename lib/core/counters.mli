(** Work counters for the meld pipeline.

    Figures 11, 13, 17, 19, 22 and 24 of the paper report exactly these
    quantities, so every stage keeps its own {!stage} record and the
    benchmark harness reads them after a run.  Premeld keeps one record
    for all its paper threads (Section 3.4).  The integer counts depend
    only on the log, so they match exactly across replicas and replays
    (seconds, of course, differ). *)

type stage = {
  mutable intentions : int;  (** intentions processed by this stage *)
  mutable nodes_visited : int;  (** tree nodes inspected by the meld operator *)
  mutable ephemerals : int;  (** ephemeral nodes created *)
  mutable grafts : int;  (** subtree grafts (early terminations) *)
  mutable aborts : int;  (** conflicts detected at this stage *)
  mutable seconds : float;  (** accumulated monotonic time in the stage *)
}

val make_stage : unit -> stage
val copy_stage : stage -> stage

type t = {
  deserialize : stage;
  premeld : stage;  (** the work of every premeld thread *)
  group_meld : stage;
  final_meld : stage;
  mutable committed : int;
  mutable aborted : int;
  conflict_zone : Hyder_util.Stats.Summary.t;
      (** intentions between (effective) snapshot and the LCS at final meld —
          the conflict zone length final meld observes (Figure 12) *)
  fm_nodes_per_txn : Hyder_util.Stats.Summary.t;
      (** nodes visited by final meld per intention (Figure 11) *)
  intention_bytes : Hyder_util.Stats.Summary.t;
      (** encoded intention sizes, when known (drives blocks-per-intention
          accounting in Figure 12) *)
}

val create : unit -> t

val premeld_total : t -> stage
(** A copy of the [premeld] record, which later premeld work leaves as
    it was. *)

val copy : t -> t
(** Independent copy of the stage records, commit/abort tallies {e and}
    the streaming summaries, for snapshotting counters at a
    measurement-window edge: window statistics are the difference between
    the live counters and the copy. *)
