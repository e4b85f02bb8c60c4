external block : 'a -> unit = "hyder_prefetch" [@@noalloc]
