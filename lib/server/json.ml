(* Minimal JSON codec for the server wire protocol: recursive-descent
   parser over a string, compact printer.  See json.mli. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---- printing ---------------------------------------------------- *)

(* Bytes [escape] copies as they are: all but quote, backslash and
   control bytes. *)
let plain c = c <> '"' && c <> '\\' && Char.code c >= 0x20

(* The end of the run of plain bytes of [s] from [i]. *)
let rec run s i =
  if i < String.length s && plain (String.unsafe_get s i) then run s (i + 1)
  else i

(* [s] escaped, appended to [buf]: each run of plain bytes in one copy. *)
let add_escaped buf (s : string) =
  let n = String.length s in
  let rec go i =
    let j = run s i in
    Buffer.add_substring buf s i (j - i);
    if j < n then begin
      (match String.unsafe_get s j with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
      go (j + 1)
    end
  in
  go 0

let escape (s : string) : string =
  if run s 0 = String.length s then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    add_escaped buf s;
    Buffer.contents buf
  end

let num_to_string (v : float) : string =
  if Float.is_integer v && Float.abs v < 1e15 then
    string_of_int (int_of_float v)
  else if Float.is_nan v || Float.abs v = Float.infinity then "null"
  else Printf.sprintf "%.17g" v

let rec add_json buf (j : t) =
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num v -> Buffer.add_string buf (num_to_string v)
  | Str s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          add_json buf v)
        l;
      Buffer.add_char buf ']'
  | Obj members ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_char buf '"';
          add_escaped buf k;
          Buffer.add_string buf "\": ";
          add_json buf v)
        members;
      Buffer.add_char buf '}'

let to_string (j : t) : string =
  let buf = Buffer.create 256 in
  add_json buf j;
  Buffer.contents buf

(* ---- parsing ----------------------------------------------------- *)

exception Parse_error of string

type cursor = { s : string; mutable i : int }

let fail c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.i))

(* the byte at the cursor, '\000' at the end of the input: callers that
   accept a NUL byte there tell the two apart with [at_end] *)
let peek c = if c.i < String.length c.s then String.unsafe_get c.s c.i else '\000'
let at_end c = c.i >= String.length c.s

let skip_ws c =
  while
    c.i < String.length c.s
    && match c.s.[c.i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.i <- c.i + 1
  done

let expect c ch =
  if peek c = ch then c.i <- c.i + 1
  else fail c (Printf.sprintf "expected '%c'" ch)

let literal c word value =
  let n = String.length word in
  if c.i + n <= String.length c.s && String.sub c.s c.i n = word then begin
    c.i <- c.i + n;
    value
  end
  else fail c ("expected " ^ word)

(* UTF-8 encode one scalar value into [buf] *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex4 c =
  let v = ref 0 in
  for _ = 1 to 4 do
    let d =
      match peek c with
      | '0' .. '9' as ch -> Char.code ch - Char.code '0'
      | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
      | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
      | _ -> fail c "bad \\u escape"
    in
    c.i <- c.i + 1;
    v := (!v lsl 4) lor d
  done;
  !v

(* The string after its opening quote, up to and past its closing one.
   Runs of bytes that need no decoding are copied in one call. *)
let parse_string_body c =
  let s = c.s and n = String.length c.s in
  let rec verbatim i =
    if i < n && match String.unsafe_get s i with '"' | '\\' -> false | _ -> true
    then verbatim (i + 1)
    else i
  in
  let j = verbatim c.i in
  if j < n && String.unsafe_get s j = '"' then begin
    (* no escape: the common case, one copy *)
    let r = String.sub s c.i (j - c.i) in
    c.i <- j + 1;
    r
  end
  else begin
    let buf = Buffer.create (j - c.i + 16) in
    (* [j]: the end of the run that starts at the cursor *)
    let rec go j =
      Buffer.add_substring buf s c.i (j - c.i);
      c.i <- j;
      if at_end c then fail c "unterminated string"
      else if peek c = '"' then c.i <- c.i + 1
      else begin
        c.i <- c.i + 1;
        (match peek c with
        | '"' -> Buffer.add_char buf '"'; c.i <- c.i + 1
        | '\\' -> Buffer.add_char buf '\\'; c.i <- c.i + 1
        | '/' -> Buffer.add_char buf '/'; c.i <- c.i + 1
        | 'b' -> Buffer.add_char buf '\b'; c.i <- c.i + 1
        | 'f' -> Buffer.add_char buf '\012'; c.i <- c.i + 1
        | 'n' -> Buffer.add_char buf '\n'; c.i <- c.i + 1
        | 'r' -> Buffer.add_char buf '\r'; c.i <- c.i + 1
        | 't' -> Buffer.add_char buf '\t'; c.i <- c.i + 1
        | 'u' ->
            c.i <- c.i + 1;
            let cp = hex4 c in
            (* combine a high surrogate with a following \uXXXX low one *)
            if cp >= 0xD800 && cp <= 0xDBFF
               && c.i + 1 < n
               && s.[c.i] = '\\' && s.[c.i + 1] = 'u'
            then begin
              c.i <- c.i + 2;
              let lo = hex4 c in
              if lo >= 0xDC00 && lo <= 0xDFFF then
                add_utf8 buf
                  (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
              else begin
                add_utf8 buf cp;
                add_utf8 buf lo
              end
            end
            else add_utf8 buf cp
        | _ -> fail c "bad escape");
        go (verbatim c.i)
      end
    in
    go j;
    Buffer.contents buf
  end

let parse_number c =
  let start = c.i in
  let is_num_char ch =
    (ch >= '0' && ch <= '9')
    || ch = '-' || ch = '+' || ch = '.' || ch = 'e' || ch = 'E'
  in
  while c.i < String.length c.s && is_num_char c.s.[c.i] do
    c.i <- c.i + 1
  done;
  match float_of_string_opt (String.sub c.s start (c.i - start)) with
  | Some v -> Num v
  | None -> fail c "bad number"

let rec parse_value c =
  skip_ws c;
  if at_end c then fail c "unexpected end of input";
  match peek c with
  | 'n' -> literal c "null" Null
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | '"' -> c.i <- c.i + 1; Str (parse_string_body c)
  | '[' ->
      c.i <- c.i + 1;
      skip_ws c;
      if peek c = ']' then begin c.i <- c.i + 1; List [] end
      else
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | ',' -> c.i <- c.i + 1; items (v :: acc)
          | ']' -> c.i <- c.i + 1; List (List.rev (v :: acc))
          | _ -> fail c "expected ',' or ']'"
        in
        items []
  | '{' ->
      c.i <- c.i + 1;
      skip_ws c;
      if peek c = '}' then begin c.i <- c.i + 1; Obj [] end
      else
        let rec members acc =
          skip_ws c;
          expect c '"';
          let k = parse_string_body c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | ',' -> c.i <- c.i + 1; members ((k, v) :: acc)
          | '}' -> c.i <- c.i + 1; Obj (List.rev ((k, v) :: acc))
          | _ -> fail c "expected ',' or '}'"
        in
        members []
  | '-' | '0' .. '9' -> parse_number c
  | ch -> fail c (Printf.sprintf "unexpected '%c'" ch)

let parse (s : string) : (t, string) result =
  let c = { s; i = 0 } in
  try
    let v = parse_value c in
    skip_ws c;
    if c.i <> String.length s then Error "trailing garbage"
    else Ok v
  with Parse_error msg -> Result.error msg

(* ---- accessors --------------------------------------------------- *)

let member k = function
  | Obj members -> ( match List.assoc_opt k members with Some v -> v | None -> Null)
  | _ -> Null

let to_str = function Str s -> Some s | _ -> None
let to_num = function Num v -> Some v | _ -> None

let to_int = function
  | Num v when Float.is_integer v -> Some (int_of_float v)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None
