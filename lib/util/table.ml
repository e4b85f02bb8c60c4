type t = {
  title : string;
  columns : string list;
  mutable rows : string list list; (* reversed *)
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg
      (Printf.sprintf "Table.add_row: expected %d cells, got %d"
         (List.length t.columns) (List.length cells));
  t.rows <- cells :: t.rows

let print t =
  let rows = List.rev t.rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      t.columns
  in
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  let line cells =
    String.concat "  " (List.map2 pad cells widths)
  in
  print_newline ();
  Printf.printf "== %s ==\n" t.title;
  print_endline (line t.columns);
  print_endline
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  List.iter (fun row -> print_endline (line row)) rows

let cell_float f =
  if Float.abs f >= 1000.0 then Printf.sprintf "%.0f" f
  else if Float.abs f >= 10.0 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.3f" f

let cell_int = string_of_int
