(** Fixed-width text tables: the benchmark harness prints every reproduced
    figure as one of these so the series can be compared with the paper. *)

type t

val create : title:string -> columns:string list -> t

val add_row : t -> string list -> unit
(** Row cells; must match the column count. *)

val print : t -> unit
(** Render to stdout with aligned columns and a rule under the header. *)

val cell_float : float -> string
(** Standard numeric formatting used across benches. *)

val cell_int : int -> string
