(** Software prefetch for pointer walks over trees far beyond cache.

    A walk that knows an address one miss before it dereferences it
    starts the load early, so two misses overlap instead of queueing.
    The hint never faults, allocates or changes a value; the only
    observable effect is time. *)

external block : 'a -> unit = "hyder_prefetch" [@@noalloc]
(** [block v] starts loading the cache lines holding [v]'s first six
    fields when [v] is a heap block; an immediate is ignored.  A tree
    node keeps its key, meta word, version words and child links there,
    everything a walk or the encoder reads of a node it passes. *)
