(** On-disk summary store: one content-addressed directory shared by
    every program and revision, keyed by summary key.  Each run
    publishes at most one new file, atomically, holding only keys the
    directory lacked; opening reads only the indexes, and a summary is
    read and unmarshalled when its key is looked up.  A missing,
    truncated, corrupt or foreign file or summary degrades to a miss
    with a warning on stderr, never an error. *)

(** An opened store: the index of every readable file of a directory. *)
type t

(** Read the indexes of every store file in [dir] (none when it does
    not exist). *)
val open_ : dir:string -> t

(** Keys the readable files of [dir] hold, read silently: what a
    later {!open_} would index. *)
val count : dir:string -> int

val mem : t -> Astree_core.Iterator.summary_key -> bool

(** The summary stored under a key, read from its file now; [None] when
    absent or when its bytes fail their digest (the key is then
    forgotten). *)
val find :
  t -> Astree_core.Iterator.summary_key -> Astree_core.Iterator.summary option

(** Every key the opened files hold. *)
val keys : t -> Astree_core.Iterator.summary_key list

(** Summaries {!find} has read so far. *)
val loaded : t -> int

(** Close the files {!find} opened. *)
val close : t -> unit

(** Publish, as one new file of [dir] (created if needed), the entries
    whose keys no file of [dir] holds; nothing when there are none.
    The file is fsynced before an atomic rename publishes it, so a
    reader never observes a torn file and concurrent writers are safe.
    Failures warn and leave the directory as it was. *)
val save :
  dir:string ->
  (Astree_core.Iterator.summary_key * Astree_core.Iterator.summary) list ->
  unit
