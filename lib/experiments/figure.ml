type point = { x : float; y : float; sd : float }
type series = { label : string; points : point list }

type t = {
  id : string;
  title : string;
  xlabel : string;
  ylabel : string;
  series : series list;
  paper_expectation : string;
}

let xs t =
  let all = List.concat_map (fun s -> List.map (fun p -> p.x) s.points) t.series in
  List.sort_uniq Float.compare all

let value_at s x =
  List.find_opt (fun p -> Float.equal p.x x) s.points

let pp ppf t =
  Fmt.pf ppf "=== %s: %s ===@." t.id t.title;
  Fmt.pf ppf "paper: %s@." t.paper_expectation;
  let width = 22 in
  Fmt.pf ppf "%-10s" t.xlabel;
  List.iter (fun s -> Fmt.pf ppf " | %*s" width s.label) t.series;
  Fmt.pf ppf "@.";
  List.iter
    (fun x ->
      Fmt.pf ppf "%-10g" x;
      List.iter
        (fun s ->
          match value_at s x with
          | Some p ->
            if p.sd > 0.0 then
              Fmt.pf ppf " | %*s" width (Printf.sprintf "%.2f +/- %.2f" p.y p.sd)
            else Fmt.pf ppf " | %*s" width (Printf.sprintf "%.2f" p.y)
          | None -> Fmt.pf ppf " | %*s" width "-")
        t.series;
      Fmt.pf ppf "@.")
    (xs t);
  Fmt.pf ppf "(y: %s)@." t.ylabel

let pp_chart ppf t =
  let levels = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '%'; '@' |] in
  let all_y = List.concat_map (fun s -> List.map (fun p -> p.y) s.points) t.series in
  let max_y = List.fold_left Float.max 0.0 all_y in
  if max_y > 0.0 then begin
    Fmt.pf ppf "chart (rows: series over %s; bar height ~ %s, max %.4g):@." t.xlabel
      t.ylabel max_y;
    List.iter
      (fun s ->
        let bar =
          String.concat ""
            (List.map
               (fun p ->
                 let idx =
                   int_of_float (Float.round (p.y /. max_y *. 9.0))
                 in
                 String.make 1 levels.(Stdlib.max 0 (Stdlib.min 9 idx)))
               s.points)
        in
        Fmt.pf ppf "  %-22s |%s|@." s.label bar)
      t.series
  end

(* RFC 4180: a field holding a comma, a quote or a line break is quoted,
   and its quotes are doubled. *)
let csv_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer "figure,series,x,y,sd\n";
  List.iter
    (fun s ->
      List.iter
        (fun p ->
          Buffer.add_string buffer
            (Printf.sprintf "%s,%s,%g,%g,%g\n" (csv_field t.id) (csv_field s.label) p.x
               p.y p.sd))
        s.points)
    t.series;
  Buffer.contents buffer

let series_points t label =
  match List.find_opt (fun s -> s.label = label) t.series with
  | None -> raise Not_found
  | Some s -> List.map (fun p -> (p.x, p.y)) s.points
