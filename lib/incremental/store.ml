(** On-disk summary store: one file per program fingerprint.

    Each file is a versioned magic header, an MD5 digest of the
    payload, and then the [Marshal]ed payload tagged with the OCaml
    version (marshalling is not stable across compiler versions) and
    the program fingerprint it was saved under.  The digest matters:
    [Marshal] has no internal checksum, so without it a flipped bit in
    a stored summary could deserialize into a *different valid*
    summary and silently poison a warm run.  Writes go through a
    temporary file and an atomic rename, so
    concurrent batch workers and interrupted runs can never leave a
    half-written store.  Loading is strictly best-effort: a missing,
    truncated, corrupt, stale or foreign file yields an empty summary
    list and a warning on stderr — the cache degrades to cold, it never
    fails an analysis. *)

module C = Astree_core
module Faultsim = Astree_robust.Faultsim

(* v3: Alarm.t gained the provenance field; v4: capture_delta gained
   cd_itf_writes (multi-task interference); v5: Ptmap branches gained
   the digest cache, and summary keys the source-location closure and
   the canonical entry digest.  Each changed the Marshal layout or the
   meaning of stored summaries — older stores must read as foreign and
   degrade to cold, not crash. *)
let magic = "astree-summary-store v5\n"

type entries = (C.Iterator.summary_key * C.Iterator.summary) array

let file_of ~(dir : string) ~(key : string) : string =
  Filename.concat dir (key ^ ".summaries")

let warn fmt =
  Format.kasprintf (fun s -> prerr_endline ("astree: warning: " ^ s)) fmt

let rec mkdir_p (dir : string) : unit =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_store ~(quiet : bool) ~(dir : string) ~(key : string) :
    (C.Iterator.summary_key * C.Iterator.summary) list =
  let warn fmt =
    if quiet then Format.ikfprintf (fun _ -> ()) Format.err_formatter fmt
    else warn fmt
  in
  let file = file_of ~dir ~key in
  if not (Sys.file_exists file) then []
  else
    try
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let hdr = really_input_string ic (String.length magic) in
          if hdr <> magic then begin
            warn "summary store %s: bad magic, ignored" file;
            []
          end
          else begin
            (* fault injection: behave exactly as a corrupt payload.
               The quiet path (the pre-save merge read) skips the
               injection point so armed fault schedules keep their call
               numbering *)
            if (not quiet) && Faultsim.fires Faultsim.Cache_corrupt then
              failwith "fault injection: corrupt store read";
            let stored_digest =
              really_input_string ic 16 (* Digest.string length *)
            in
            let payload = In_channel.input_all ic in
            if Digest.string payload <> stored_digest then
              failwith "payload digest mismatch";
            let ver, stored_key, (entries : entries) =
              (Marshal.from_string payload 0
                : string * string * entries)
            in
            if ver <> Sys.ocaml_version then begin
              warn "summary store %s: written by OCaml %s, ignored" file ver;
              []
            end
            else if stored_key <> key then begin
              warn "summary store %s: stale program fingerprint, ignored" file;
              []
            end
            else Array.to_list entries
          end)
    with
    | Sys_error msg ->
        warn "summary store %s: %s, ignored" file msg;
        []
    | End_of_file | Failure _ ->
        warn "summary store %s: truncated or corrupt, ignored" file;
        []

let load ~(dir : string) ~(key : string) :
    (C.Iterator.summary_key * C.Iterator.summary) list =
  read_store ~quiet:false ~dir ~key

let save ~(dir : string) ~(key : string)
    (entries : (C.Iterator.summary_key * C.Iterator.summary) list) : unit =
  try
    mkdir_p dir;
    (* merge-on-save: union with whatever is already published under
       this key, keep-ours on collisions (a key pins the exact entry
       state and configuration, so colliding summaries are equal).
       Concurrent writers — daemon workers, batch runs sharing a cache
       directory — then converge toward the union instead of the last
       rename silently dropping the other writer's entries.  The read
       is best-effort and silent: a corrupt incumbent is simply
       replaced. *)
    let entries =
      match read_store ~quiet:true ~dir ~key with
      | [] -> entries
      | existing ->
          let seen = Hashtbl.create (List.length entries) in
          List.iter (fun (k, _) -> Hashtbl.replace seen k ()) entries;
          entries
          @ List.filter (fun (k, _) -> not (Hashtbl.mem seen k)) existing
    in
    let tmp = Filename.temp_file ~temp_dir:dir "summaries" ".tmp" in
    (* any failure between here and the rename (a full disk, an injected
       ENOSPC) must not leave the temporary behind: remove it before
       reporting the write as failed *)
    (try
       let oc = open_out_bin tmp in
       Fun.protect
         ~finally:(fun () -> close_out_noerr oc)
         (fun () ->
           if Faultsim.fires Faultsim.Cache_write then
             raise (Sys_error (tmp ^ ": fault injection: no space left"));
           (* sharing-preserving marshal: summary exit states share most
              of their structure (packs, trees), and expanding it would
              blow the file up by orders of magnitude.  Keys never come
              from the Marshal image ([Summary.entry_digest] writes its
              own canonical form), so sharing here is harmless; the
              maps' cached digests travel along and stay valid. *)
           let payload =
             Marshal.to_string
               (Sys.ocaml_version, key, (Array.of_list entries : entries))
               []
           in
           output_string oc magic;
           output_string oc (Digest.string payload);
           output_string oc payload;
           (* the rename publishes atomically; fsync first so a crash
              right after it cannot leave the published name pointing at
              data the kernel never wrote back *)
           flush oc;
           Unix.fsync (Unix.descr_of_out_channel oc));
       Sys.rename tmp (file_of ~dir ~key)
     with e ->
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e)
  with Sys_error msg | Unix.Unix_error (_, msg, _) ->
    warn "summary store not saved in %s: %s" dir msg

(* ------------------------------------------------------------------ *)
(* Generic versioned blobs (daemon checkpoints)                        *)
(* ------------------------------------------------------------------ *)

let save_blob ~(file : string) ~(magic : string) (v : 'a) : unit =
  try
    mkdir_p (Filename.dirname file);
    let payload = Marshal.to_string (Sys.ocaml_version, v) [] in
    if Faultsim.fires Faultsim.Checkpoint_torn then begin
      (* a torn write: the final name receives the header and only half
         of the payload, with no rename to protect it — exactly what a
         crash inside a non-atomic writer would leave behind.  The
         loader must reject it by digest. *)
      let oc = open_out_bin file in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc magic;
          output_string oc (Digest.string payload);
          output_string oc
            (String.sub payload 0 (String.length payload / 2)))
    end
    else begin
      let tmp =
        Filename.temp_file ~temp_dir:(Filename.dirname file)
          (Filename.basename file) ".tmp"
      in
      try
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc magic;
            output_string oc (Digest.string payload);
            output_string oc payload;
            flush oc;
            Unix.fsync (Unix.descr_of_out_channel oc));
        Sys.rename tmp file
      with e ->
        (try Sys.remove tmp with Sys_error _ -> ());
        raise e
    end
  with Sys_error msg | Unix.Unix_error (_, msg, _) ->
    warn "blob %s not saved: %s" file msg

let load_blob ~(file : string) ~(magic : string) : 'a option =
  if not (Sys.file_exists file) then None
  else
    try
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let hdr = really_input_string ic (String.length magic) in
          if hdr <> magic then failwith "bad magic"
          else begin
            let stored_digest = really_input_string ic 16 in
            let payload = In_channel.input_all ic in
            if Digest.string payload <> stored_digest then
              failwith "payload digest mismatch";
            let ver, (v : 'a) =
              (Marshal.from_string payload 0 : string * 'a)
            in
            if ver <> Sys.ocaml_version then failwith "foreign OCaml version"
            else Some v
          end)
    with
    | Sys_error msg ->
        warn "blob %s: %s, ignored" file msg;
        None
    | End_of_file | Failure _ ->
        warn "blob %s: truncated or corrupt, ignored" file;
        None
