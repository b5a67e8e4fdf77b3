type t =
  | Num of string
  | Str of string
  | Bool of bool
  | Null
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

(* --- Printing -------------------------------------------------------------- *)

(* [caml_format_float] is what Printf's "%.17g" ends up calling; going to
   it directly skips the format interpreter on the trace hot path. *)
external format_float : string -> float -> string = "caml_format_float"

let float_lit v =
  if Float.is_integer v && Float.abs v < 1e15 then format_float "%.1f" v
  else format_float "%.17g" v

let of_int i = Num (string_of_int i)
let of_float v = Num (float_lit v)
let of_option f = function None -> Null | Some x -> f x

let hex = "0123456789abcdef"

(* Runs of bytes that need no escaping are copied in one blit, so a plain
   identifier costs no allocation at all. *)
let add_string b s =
  Buffer.add_char b '"';
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      if i > !start then Buffer.add_substring b s !start (i - !start);
      (match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c ->
        Buffer.add_string b "\\u00";
        Buffer.add_char b hex.[Char.code c lsr 4];
        Buffer.add_char b hex.[Char.code c land 15]);
      start := i + 1
    end
  done;
  if !start = 0 then Buffer.add_string b s
  else if n > !start then Buffer.add_substring b s !start (n - !start);
  Buffer.add_char b '"'

let rec to_buffer b = function
  | Num s -> Buffer.add_string b s
  | Str s -> add_string b s
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Null -> Buffer.add_string b "null"
  | Arr [] -> Buffer.add_string b "[]"
  | Arr (x :: rest) ->
    Buffer.add_char b '[';
    to_buffer b x;
    add_elements b rest;
    Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj ((k, v) :: rest) ->
    Buffer.add_char b '{';
    add_member b k v;
    add_members b rest;
    Buffer.add_char b '}'

and add_elements b = function
  | [] -> ()
  | x :: rest ->
    Buffer.add_char b ',';
    to_buffer b x;
    add_elements b rest

and add_member b k v =
  add_string b k;
  Buffer.add_char b ':';
  to_buffer b v

and add_members b = function
  | [] -> ()
  | (k, v) :: rest ->
    Buffer.add_char b ',';
    add_member b k v;
    add_members b rest

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

let escape s =
  let b = Buffer.create (String.length s + 2) in
  add_string b s;
  Buffer.contents b

(* --- Parsing --------------------------------------------------------------- *)

let max_depth = 512

(* UTF-8 encoding of one code point (a lone surrogate is encoded as is,
   so no \u escape can fail to decode). *)
let add_utf8 buf code =
  let byte x = Buffer.add_char buf (Char.unsafe_chr x) in
  if code < 0x80 then byte code
  else if code < 0x800 then begin
    byte (0xc0 lor (code lsr 6));
    byte (0x80 lor (code land 0x3f))
  end
  else if code < 0x10000 then begin
    byte (0xe0 lor (code lsr 12));
    byte (0x80 lor ((code lsr 6) land 0x3f));
    byte (0x80 lor (code land 0x3f))
  end
  else begin
    byte (0xf0 lor (code lsr 18));
    byte (0x80 lor ((code lsr 12) land 0x3f));
    byte (0x80 lor ((code lsr 6) land 0x3f));
    byte (0x80 lor (code land 0x3f))
  end

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail_at at msg = raise (Bad (Printf.sprintf "%s at %d" msg at)) in
  let fail msg = fail_at !pos msg in
  let expect c =
    match peek () with
    | Some c' when c' = c -> incr pos
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  (* The four hex digits of the \u escape whose backslash is at [at]. *)
  let hex4 at =
    if at + 6 > n then fail_at at "truncated \\u escape";
    let digit i =
      match s.[at + 2 + i] with
      | '0' .. '9' as c -> Char.code c - 48
      | 'a' .. 'f' as c -> Char.code c - 87
      | 'A' .. 'F' as c -> Char.code c - 55
      | _ -> fail_at at (Printf.sprintf "bad \\u escape %S" (String.sub s (at + 2) 4))
    in
    (digit 0 lsl 12) lor (digit 1 lsl 8) lor (digit 2 lsl 4) lor digit 3
  in
  let parse_escaped buf =
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' ->
        let at = !pos in
        incr pos;
        (match peek () with
        | Some '"' -> Buffer.add_char buf '"'
        | Some '\\' -> Buffer.add_char buf '\\'
        | Some '/' -> Buffer.add_char buf '/'
        | Some 'b' -> Buffer.add_char buf '\b'
        | Some 'f' -> Buffer.add_char buf '\012'
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 'r' -> Buffer.add_char buf '\r'
        | Some 't' -> Buffer.add_char buf '\t'
        | Some 'u' ->
          let code = hex4 at in
          pos := !pos + 4;
          (* A high surrogate followed by an escaped low one is one
             code point outside the basic plane. *)
          if
            code land 0xfc00 = 0xd800
            && !pos + 6 < n
            && s.[!pos + 1] = '\\'
            && s.[!pos + 2] = 'u'
          then begin
            let low = hex4 (!pos + 1) in
            if low land 0xfc00 = 0xdc00 then begin
              pos := !pos + 6;
              add_utf8 buf (0x10000 + ((code land 0x3ff) lsl 10) lor (low land 0x3ff))
            end
            else add_utf8 buf code
          end
          else add_utf8 buf code
        | Some c -> fail_at at (Printf.sprintf "bad escape \\%c" c)
        | None -> fail "truncated escape");
        incr pos;
        go ()
      | Some c ->
        incr pos;
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  (* The closing quote of a string starting at [i] that holds no escape. *)
  let rec plain i =
    if i >= n then None
    else
      match String.unsafe_get s i with
      | '"' -> Some i
      | '\\' -> None
      | _ -> plain (i + 1)
  in
  (* The common case, a string with no escapes, is one [String.sub]. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    match plain start with
    | Some stop ->
      pos := stop + 1;
      String.sub s start (stop - start)
    | None ->
      let buf = Buffer.create 16 in
      parse_escaped buf;
      Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let number_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> number_char c | None -> false) do
      incr pos
    done;
    if !pos = start then fail "expected a number";
    Num (String.sub s start (!pos - start))
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      v
    end
    else fail ("expected " ^ word)
  in
  (* Recursion depth is bounded: past [max_depth] the parse stops with a
     located error instead of growing the stack. *)
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('{' | '[') when depth >= max_depth ->
      fail (Printf.sprintf "nesting deeper than %d" max_depth)
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            members ((key, v) :: acc)
          | Some '}' ->
            incr pos;
            Obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            elements (v :: acc)
          | Some ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        elements []
      end
    | _ -> parse_number ()
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* --- Accessors ------------------------------------------------------------- *)

let obj = function Obj o -> o | _ -> raise (Bad "expected an object")

let field o key =
  match List.assoc_opt key o with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "missing field %S" key))

let field_opt o key = List.assoc_opt key o
let str = function Str s -> s | _ -> raise (Bad "expected a string")
let num = function Num s -> s | _ -> raise (Bad "expected a number")

let int v =
  match int_of_string_opt (num v) with
  | Some i -> i
  | None -> raise (Bad "expected an int")

let float v = float_of_string (num v)
let bool = function Bool b -> b | _ -> raise (Bad "expected a bool")
let arr = function Arr l -> l | _ -> raise (Bad "expected an array")

let try_result f =
  match f () with
  | v -> Ok v
  | exception Bad msg -> Error msg
  | exception Failure msg -> Error msg
