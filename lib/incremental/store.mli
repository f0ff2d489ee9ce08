(** On-disk summary store: one content-addressed directory shared by
    every program and revision, keyed by summary key.  Each run
    publishes at most one new summary file ([*.sums]), atomically,
    holding only keys the directory lacked; opening reads only the
    indexes, and a summary is read and unmarshalled when its key is
    looked up.  The same directory holds report records ([*.report],
    {!find_record}), which {!open_} never lists.  A missing, truncated,
    corrupt or foreign file, summary or record degrades to a miss with
    a warning on stderr, never an error. *)

(** An opened store: the index of every readable file of a directory. *)
type t

(** Read the indexes of every store file in [dir] (none when it does
    not exist). *)
val open_ : dir:string -> t

(** Keys the readable files of [dir] hold, read silently: what a
    later {!open_} would index. *)
val count : dir:string -> int

val mem : t -> Astree_core.Transfer.summary_key -> bool

(** The summary stored under a key, read from its file now; [None] when
    absent or when its bytes fail their digest (the key is then
    forgotten). *)
val find :
  t -> Astree_core.Transfer.summary_key -> Astree_core.Transfer.summary option

(** Every key the opened files hold. *)
val keys : t -> Astree_core.Transfer.summary_key list

(** Summaries {!find} has read so far. *)
val loaded : t -> int

(** Close the files {!find} opened. *)
val close : t -> unit

(** Publish, as one new file of [dir] (created if needed), the entries
    whose keys no file of [dir] holds; nothing when there are none.
    The file is fsynced before an atomic rename publishes it, so a
    reader never observes a torn file and concurrent writers are safe.
    Failures warn and leave the directory as it was.  With [opened], the
    store of [dir] the run opened, the indexes it read stand for their
    files (file names derive from content and files are never
    rewritten): only files published since are read. *)
val save :
  ?opened:t ->
  dir:string ->
  (Astree_core.Transfer.summary_key * Astree_core.Transfer.summary) list ->
  unit

(** {1 Report records}

    One file per key, [DIR/<key>.report]: a header naming the caller's
    record format [version] and the OCaml version, an opaque payload,
    and the MD5 of both.  The caller derives [key] from everything the
    payload is a function of. *)

(** The payload published under [key]: [None], silently, when there is
    no such file, and with one warning on stderr when the file is
    truncated, corrupt or of another [version]. *)
val find_record : dir:string -> version:string -> string -> string option

(** Publish [payload] under [key] as {!save} publishes a file:
    temporary file, fsync, atomic rename (replacing a record of the
    same key, which holds the same payload).  Failures warn and leave
    no temporary file behind. *)
val publish_record : dir:string -> version:string -> string -> string -> unit
