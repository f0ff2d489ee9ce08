(** End-user parameters of the analyzer (Sect. 3.2, 7): the initial
    design is by specialists, the adaptation to each program of the
    family is by choice of these parameters (and most of the complex
    ones are automated, Sect. 7.2). *)

type t = {
  (* ---- domains on/off (used by the refinement-ladder experiments) -- *)
  use_clocked : bool;        (** the clocked domain of Sect. 6.2.1 *)
  use_octagons : bool;       (** Sect. 6.2.2 *)
  use_ellipsoids : bool;     (** Sect. 6.2.3 *)
  use_decision_trees : bool; (** Sect. 6.2.4 *)
  use_linearization : bool;  (** symbolic manipulation, Sect. 6.3 *)
  (* ---- iteration strategy (Sect. 7.1) ------------------------------ *)
  widening_thresholds : Astree_domains.Thresholds.t;
      (** threshold set for widening (Sect. 7.1.2) *)
  delay_widening : int;
      (** iterations with plain unions before widening (Sect. 7.1.3) *)
  widening_fairness : int;
      (** extra join rounds granted while variables keep stabilizing
          (the fairness condition of Sect. 7.1.3) *)
  loop_unroll : int;         (** semantic unrolling factor (Sect. 7.1.1) *)
  loop_unroll_overrides : (int * int) list;
      (** per-loop unrolling factors, keyed by loop id *)
  narrowing_iterations : int;
      (** decreasing iterations after stabilization (Sect. 5.5) *)
  float_iteration_epsilon : float;
      (** the perturbation epsilon of Sect. 7.1.4 *)
  partitioned_functions : string list;
      (** functions analyzed with trace partitioning (Sect. 7.1.5) *)
  max_partitions : int;      (** bound on simultaneous execution traces *)
  (* ---- packing (Sect. 7.2) ----------------------------------------- *)
  max_octagon_pack : int;    (** maximum variables per octagon pack *)
  max_dtree_bools : int;
      (** booleans per decision-tree pack; "setting this parameter to
          three yields an efficient and precise analysis" (Sect. 7.2.3) *)
  max_dtree_nums : int;
  useful_packs_only : (string * int list) option;
      (** reuse a useful-octagon-packs list from a previous analysis
          (Sect. 7.2.2) *)
  (* ---- model of the environment (Sect. 4) -------------------------- *)
  max_clock : int;
      (** maximal number of clock ticks (maximal continuous operating
          time over the clock period) *)
  (* ---- memory-domain implementation (Sect. 6.1.2 ablation) --------- *)
  expand_array_max : int;
      (** arrays up to this size are expanded cell-per-cell; larger ones
          are shrunk into a single cell (Sect. 6.1.1) *)
  naive_environments : bool;
      (** naive array environments, for the E5 ablation only *)
  (* ---- parallel analysis (Astree_parallel) ------------------------- *)
  jobs : int;
      (** worker processes for the parallel subsystem; [1] = sequential *)
  (* ---- incremental analysis (Astree_incremental) ------------------- *)
  summary_cache : cache;
      (** function-summary memoization: [Cache_mem] within one run,
          [Cache_dir d] persisted in [d] across runs; never affects
          results, only their cost *)
  (* ---- resource budget (Astree_robust) ------------------------------ *)
  timeout : float;   (** wall-clock budget in seconds; [0.] = unbounded *)
  max_mem_mb : int;  (** major-heap watermark in MiB; [0] = unbounded *)
  shed_packs_above : int option;
      (** drop relational packs wider than [k] variables to intervals;
          set by the degradation ladder *)
  (* ---- multi-task interference analysis (Astree_conc) --------------- *)
  conc_shared : string list;
      (** shared variables of a multi-task analysis, excluded from
          relational packs (their relations would be stale under
          interference); [[]] — the default — for single-task runs *)
  conc_rely_digest : string;
      (** digest of the installed interference (rely) map, [""] outside
          multi-task runs; folded into the config fingerprint so cached
          summaries self-identify their interference round *)
}

and cache = Cache_off | Cache_mem | Cache_dir of string

(** All domains and strategies on — the fully refined analyzer. *)
val default : t

(** The analyzer of [5] the paper started from: intervals, the clocked
    domain and widening with thresholds, none of this paper's
    refinements. *)
val baseline : t

(** Plain interval analysis, the Sect. 2 starting point. *)
val intervals_only : t

(** Unrolling factor for a given loop id. *)
val unroll_for : t -> int -> int

(** Whether any summary caching (in-memory or persistent) is on. *)
val cache_enabled : t -> bool
