(** Deterministic fault-injection registry.

    Every recovery path of the analyzer — worker crash, worker hang,
    truncated marshal reply, corrupt summary-store read, failed
    summary-store write — is guarded by a named injection point.  A
    fault specification names the points to arm and the per-call firing
    probability of each; firing decisions are drawn from a counter-based
    splitmix64 stream seeded by (seed, point, call number), so a given
    spec reproduces the same fault schedule on every run — chaos tests
    are replayable.

    The specification comes from the [ASTREE_FAULTS] environment
    variable ([seed:point=prob,point,...], probability defaulting to 1)
    or from a programmatic {!install}.

    [with_suppressed] masks all points for the duration of a callback:
    tests that assert exact pool or cache counters use it so the whole
    suite stays green under a global chaos run ([dune runtest] with
    [ASTREE_FAULTS] exported), while equivalence and degradation tests
    keep the faults live. *)

type point =
  | Worker_crash     (** pool worker self-kills before running a job *)
  | Worker_hang      (** pool worker sleeps [hang_seconds] before a job *)
  | Reply_truncate   (** pool worker writes half a marshalled reply, dies *)
  | Cache_corrupt    (** summary-store read behaves as a corrupt file *)
  | Cache_write      (** summary-store write fails mid-file (ENOSPC) *)

let all_points =
  [
    Worker_crash; Worker_hang; Reply_truncate; Cache_corrupt; Cache_write;
  ]

let point_name = function
  | Worker_crash -> "worker_crash"
  | Worker_hang -> "worker_hang"
  | Reply_truncate -> "reply_truncate"
  | Cache_corrupt -> "cache_corrupt"
  | Cache_write -> "cache_write"

let point_of_name s =
  List.find_opt (fun p -> point_name p = s) all_points

(** How long a [Worker_hang] fault sleeps.  Long enough that the
    coordinator's per-job timeout, not the sleep, ends the hang. *)
let hang_seconds = ref 3600.

type spec = { sp_seed : int; sp_probs : (point * float) list }

(* ------------------------------------------------------------------ *)
(* Spec parsing                                                         *)
(* ------------------------------------------------------------------ *)

let warn_once : (string, unit) Hashtbl.t = Hashtbl.create 4

let warn fmt =
  Format.kasprintf
    (fun s ->
      if not (Hashtbl.mem warn_once s) then begin
        Hashtbl.replace warn_once s ();
        prerr_endline ("astree: warning: " ^ s)
      end)
    fmt

(** Parse ["seed:point=prob,point,..."].  Malformed specs disable
    injection with a warning — a typo in a chaos harness must not
    silently run the suite fault-free {e and} must not crash it. *)
let parse (s : string) : spec option =
  match String.index_opt s ':' with
  | None ->
      warn "ASTREE_FAULTS %S: missing 'seed:' prefix, ignored" s;
      None
  | Some i -> (
      match int_of_string_opt (String.sub s 0 i) with
      | None ->
          warn "ASTREE_FAULTS %S: bad seed, ignored" s;
          None
      | Some seed ->
          let body = String.sub s (i + 1) (String.length s - i - 1) in
          let probs =
            String.split_on_char ',' body
            |> List.filter (fun item -> String.trim item <> "")
            |> List.filter_map (fun item ->
                   let item = String.trim item in
                   let name, prob =
                     match String.index_opt item '=' with
                     | None -> (item, Some 1.0)
                     | Some j ->
                         ( String.sub item 0 j,
                           float_of_string_opt
                             (String.sub item (j + 1)
                                (String.length item - j - 1)) )
                   in
                   match (point_of_name name, prob) with
                   | Some p, Some pr when pr >= 0.0 && pr <= 1.0 ->
                       Some (p, pr)
                   | _ ->
                       warn "ASTREE_FAULTS: bad injection point %S, skipped"
                         item;
                       None)
          in
          if probs = [] then None else Some { sp_seed = seed; sp_probs = probs })

(* ------------------------------------------------------------------ *)
(* Active specification                                                 *)
(* ------------------------------------------------------------------ *)

(* programmatic installs take precedence over the environment *)
let installed : spec option ref = ref None
let have_install = ref false

(* env parse cache, keyed on the raw variable value so tests that
   [putenv] mid-run are picked up without reparsing on every call *)
let env_cache : (string * spec option) option ref = ref None

let env_spec () : spec option =
  let faults = Option.value (Sys.getenv_opt "ASTREE_FAULTS") ~default:"" in
  match !env_cache with
  | Some (f, sp) when f = faults -> sp
  | _ ->
      let sp = if faults <> "" then parse faults else None in
      env_cache := Some (faults, sp);
      sp

let active () : spec option =
  if !have_install then !installed else env_spec ()

let install ~(seed : int) (probs : (point * float) list) : unit =
  installed := Some { sp_seed = seed; sp_probs = probs };
  have_install := true

let clear () =
  installed := None;
  have_install := false

(* ------------------------------------------------------------------ *)
(* Suppression                                                          *)
(* ------------------------------------------------------------------ *)

let suppress_depth = ref 0

let with_suppressed (k : unit -> 'a) : 'a =
  incr suppress_depth;
  Fun.protect ~finally:(fun () -> decr suppress_depth) k

(* ------------------------------------------------------------------ *)
(* Firing decisions                                                     *)
(* ------------------------------------------------------------------ *)

(* splitmix64 finalizer: statistically solid and allocation-free *)
let mix64 (z : int64) : int64 =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

(* the tag seeds each point's stream: a point keeps its tag, so a spec
   replays the same schedule it always did *)
let point_tag = function
  | Worker_crash -> 1
  | Worker_hang -> 2
  | Reply_truncate -> 3
  | Cache_corrupt -> 4
  | Cache_write -> 5

(* per-point call counters, indexed by tag; forked workers inherit the
   state at fork time, so each process draws a reproducible stream *)
let counters = Array.make 6 0

let fired = Array.make 6 0
(** how often each point actually fired, for test assertions *)

let fire_count (p : point) : int = fired.(point_tag p)

let reset_counters () =
  Array.fill counters 0 (Array.length counters) 0;
  Array.fill fired 0 (Array.length fired) 0

(* The spawn generation of this process: 0 for the workers a pool starts
   with, [n] for the [n]-th worker a pool spawned to replace a dead one.
   It keys the stream, so a replacement draws decisions of its own
   instead of replaying its predecessor's from the call counters both
   inherited; generation 0 draws the schedule it always did. *)
let generation = ref 0

let set_generation (g : int) : unit = generation := g

let fires (p : point) : bool =
  if !suppress_depth > 0 then false
  else
    match active () with
    | None -> false
    | Some sp -> (
        match List.assoc_opt p sp.sp_probs with
        | None -> false
        | Some prob ->
            let tag = point_tag p in
            let c = counters.(tag) in
            counters.(tag) <- c + 1;
            let h =
              mix64
                (Int64.logxor
                   (Int64.logxor
                      (Int64.of_int ((sp.sp_seed * 1_000_003) + c))
                      (Int64.mul (Int64.of_int tag) 0x9e3779b97f4a7c15L))
                   (Int64.mul (Int64.of_int !generation) 0xd1b54a32d192ed03L))
            in
            (* 53 uniform bits -> [0, 1) *)
            let u =
              Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0
            in
            let yes = u < prob in
            if yes then fired.(tag) <- fired.(tag) + 1;
            yes)

let describe () : string =
  match active () with
  | None -> "faults: off"
  | Some sp ->
      Fmt.str "faults: seed %d, %a" sp.sp_seed
        Fmt.(
          list ~sep:comma (fun ppf (p, pr) ->
              Fmt.pf ppf "%s=%.2f" (point_name p) pr))
        sp.sp_probs
