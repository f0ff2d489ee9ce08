(** On-disk summary store: one content-addressed directory shared by
    every program and revision, keyed by summary key.

    A run publishes at most one file, holding only the summaries whose
    keys no file in the directory had.  A file is a versioned magic
    header, the [Marshal]ed summaries one after the other, an index,
    and a footer with the index's length and MD5.  The index lists each
    summary's key, offset, length and MD5, and is tagged with the OCaml
    version (marshalling is not stable across compiler versions).
    Opening the store reads only the footers and indexes; a summary's
    bytes are read, checked against their MD5 and unmarshalled when a
    run looks its key up.  The digests matter: [Marshal] has no
    internal checksum, so a flipped bit could deserialize into a
    *different valid* summary and silently poison a warm run.

    Writes go through a temporary file, fsync and an atomic rename to a
    name derived from the index, so concurrent batch workers and
    interrupted runs never leave a half-written file.  Reading is
    strictly best-effort: a missing, truncated, corrupt or foreign file
    is skipped, and a summary whose bytes do not match its digest is a
    miss, with a warning on stderr — the cache degrades to cold, it
    never fails an analysis. *)

module C = Astree_core
module Faultsim = Astree_robust.Faultsim

(* v8: one content-addressed directory of indexed files, summaries in
   frame coordinates, octagons without a variable index (they find a
   variable by scanning their pack), and the clock widened straight to
   [max_clock] in every loop.  Files of earlier versions read as
   foreign: unmarshalling a v6 octagon as a v7 one would not fail, it
   would misread the record, and a v7 summary of a callee with a
   ticking loop holds the invariants of the old clock widening, which a
   cold run no longer computes. *)
let magic = "astree-summary-store v8\n"
let suffix = ".sums"

type key = C.Transfer.summary_key
type entries = (key * C.Transfer.summary) list

(* key, offset, length, MD5 of the marshalled summary *)
type slot = key * int * int * Digest.t

let warn fmt =
  Format.kasprintf (fun s -> prerr_endline ("astree: warning: " ^ s)) fmt

let rec mkdir_p (dir : string) : unit =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let footer_len = 8 + 16

(* The index of one file; [None] (with a warning unless [quiet]) when
   the file is not a complete store file of this version. *)
let read_index ~(quiet : bool) (file : string) : slot array option =
  let warn fmt =
    if quiet then Format.ikfprintf (fun _ -> ()) Format.err_formatter fmt
    else warn fmt
  in
  try
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let size = in_channel_length ic in
        if size < String.length magic + footer_len then
          failwith "truncated";
        if really_input_string ic (String.length magic) <> magic then begin
          warn "summary store file %s: bad magic, ignored" file;
          None
        end
        else begin
          (* fault injection: behave exactly as a corrupt file.  The
             quiet path (the pre-save scan) skips the injection point
             so armed fault schedules keep their call numbering *)
          if (not quiet) && Faultsim.fires Faultsim.Cache_corrupt then
            failwith "fault injection: corrupt store read";
          seek_in ic (size - footer_len);
          let len = Int64.to_int (String.get_int64_le (really_input_string ic 8) 0) in
          let digest = really_input_string ic 16 in
          if len < 0 || len > size - footer_len - String.length magic then
            failwith "bad index length";
          seek_in ic (size - footer_len - len);
          let index = really_input_string ic len in
          if Digest.string index <> digest then failwith "index digest mismatch";
          let ver, (slots : slot array) =
            (Marshal.from_string index 0 : string * slot array)
          in
          if ver <> Sys.ocaml_version then begin
            warn "summary store file %s: written by OCaml %s, ignored" file ver;
            None
          end
          else Some slots
        end)
  with
  | Sys_error msg ->
      warn "summary store file %s: %s, ignored" file msg;
      None
  | End_of_file | Failure _ | Invalid_argument _ ->
      warn "summary store file %s: truncated or corrupt, ignored" file;
      None

let store_files (dir : string) : string list =
  match Sys.readdir dir with
  | names ->
      Array.to_list names
      |> List.filter (fun f -> Filename.check_suffix f suffix)
      |> List.sort String.compare
      |> List.map (Filename.concat dir)
  | exception Sys_error _ -> []

(* ------------------------------------------------------------------ *)
(* Reading                                                              *)
(* ------------------------------------------------------------------ *)

type t = {
  st_index : (key, string * int * int * Digest.t) Hashtbl.t;
      (** key -> file, offset, length, MD5; first file wins *)
  st_open : (string, in_channel) Hashtbl.t;  (** files read from so far *)
  mutable st_loaded : int;
}

let scan ~(quiet : bool) (dir : string) : t =
  let index = Hashtbl.create 1024 in
  List.iter
    (fun file ->
      match read_index ~quiet file with
      | None -> ()
      | Some slots ->
          Array.iter
            (fun (k, off, len, md5) ->
              if not (Hashtbl.mem index k) then
                Hashtbl.add index k (file, off, len, md5))
            slots)
    (store_files dir);
  { st_index = index; st_open = Hashtbl.create 4; st_loaded = 0 }

let open_ ~(dir : string) : t = scan ~quiet:false dir
let count ~(dir : string) : int = Hashtbl.length (scan ~quiet:true dir).st_index
let mem (st : t) (k : key) = Hashtbl.mem st.st_index k
let loaded (st : t) = st.st_loaded
let keys (st : t) = Hashtbl.fold (fun k _ acc -> k :: acc) st.st_index []

let find (st : t) (k : key) : C.Transfer.summary option =
  match Hashtbl.find_opt st.st_index k with
  | None -> None
  | Some (file, off, len, md5) -> (
      try
        let ic =
          match Hashtbl.find_opt st.st_open file with
          | Some ic -> ic
          | None ->
              let ic = open_in_bin file in
              Hashtbl.replace st.st_open file ic;
              ic
        in
        seek_in ic off;
        let bytes = really_input_string ic len in
        if Digest.string bytes <> md5 then failwith "digest mismatch";
        let s = (Marshal.from_string bytes 0 : C.Transfer.summary) in
        st.st_loaded <- st.st_loaded + 1;
        Some s
      with Sys_error _ | End_of_file | Failure _ | Invalid_argument _ ->
        (* one bad summary is one miss; forget the key so the run
           recomputes it and may publish it again *)
        warn "summary store file %s: corrupt summary, ignored" file;
        Hashtbl.remove st.st_index k;
        None)

let close (st : t) : unit =
  Hashtbl.iter (fun _ ic -> close_in_noerr ic) st.st_open;
  Hashtbl.reset st.st_open

(* ------------------------------------------------------------------ *)
(* Writing                                                              *)
(* ------------------------------------------------------------------ *)

let save ~(dir : string) (entries : entries) : unit =
  try
    mkdir_p dir;
    (* only what no published file holds: a concurrent writer's file
       published since this run opened the store is honoured too *)
    let present = (scan ~quiet:true dir).st_index in
    let seen = Hashtbl.create 64 in
    let entries =
      List.filter
        (fun (k, _) ->
          if Hashtbl.mem present k || Hashtbl.mem seen k then false
          else begin
            Hashtbl.replace seen k ();
            true
          end)
        entries
    in
    if entries <> [] then begin
      let tmp = Filename.temp_file ~temp_dir:dir "summaries" ".tmp" in
      (* any failure between here and the rename (a full disk, an
         injected ENOSPC) must not leave the temporary behind *)
      try
        let oc = open_out_bin tmp in
        let index =
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () ->
              if Faultsim.fires Faultsim.Cache_write then
                raise (Sys_error (tmp ^ ": fault injection: no space left"));
              output_string oc magic;
              (* each summary goes straight to the file: the run never
                 holds the whole file in memory *)
              let slots =
                List.map
                  (fun (k, (s : C.Transfer.summary)) ->
                    (* sharing-preserving marshal: a summary's states
                       share structure, and expanding it would blow the
                       file up *)
                    let bytes = Marshal.to_string s [] in
                    let off = pos_out oc in
                    output_string oc bytes;
                    (k, off, String.length bytes, Digest.string bytes))
                  entries
              in
              let index =
                Marshal.to_string
                  (Sys.ocaml_version, (Array.of_list slots : slot array))
                  [ Marshal.No_sharing ]
              in
              output_string oc index;
              let len = Bytes.create 8 in
              Bytes.set_int64_le len 0 (Int64.of_int (String.length index));
              output_bytes oc len;
              output_string oc (Digest.string index);
              (* the rename publishes atomically; fsync first so a crash
                 right after it cannot leave the published name pointing
                 at data the kernel never wrote back *)
              flush oc;
              Unix.fsync (Unix.descr_of_out_channel oc);
              index)
        in
        Sys.rename tmp
          (Filename.concat dir (Digest.to_hex (Digest.string index) ^ suffix))
      with e ->
        (try Sys.remove tmp with Sys_error _ -> ());
        raise e
    end
  with Sys_error msg | Unix.Unix_error (_, msg, _) ->
    warn "summary store not saved in %s: %s" dir msg
