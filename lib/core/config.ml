(** End-user parameters of the analyzer (Sect. 3.2 and 7).

    The design principle of the paper is a parametrizable analyzer:
    specialists design the abstract domains, end-users adapt the analysis
    to a program of the family through these parameters (most of which
    can also be determined automatically, Sect. 7.2). *)

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
      (** number N0 of iterations with plain unions before widening
          starts (Sect. 7.1.3) *)
  widening_fairness : int;
      (** upper bound on extra delays granted when some variable becomes
          stable at each iteration (the fairness condition of
          Sect. 7.1.3) *)
  loop_unroll : int;
      (** default semantic unrolling factor n (Sect. 7.1.1) *)
  loop_unroll_overrides : (int * int) list;
      (** per-loop unrolling factors, keyed by loop id *)
  narrowing_iterations : int;
      (** number of decreasing iterations after stabilization *)
  float_iteration_epsilon : float;
      (** the perturbation epsilon of Sect. 7.1.4: loop invariants are
          enlarged to [a' - eps|a'|, b' + eps|b'|] before the stability
          check *)
  partitioned_functions : string list;
      (** functions analyzed with trace partitioning (Sect. 7.1.5) *)
  max_partitions : int;
      (** safety bound on simultaneous execution traces *)
  (* ---- packing (Sect. 7.2) ----------------------------------------- *)
  max_octagon_pack : int;    (** maximum variables per octagon pack *)
  max_dtree_bools : int;
      (** maximum booleans per decision-tree pack (Sect. 7.2.3: "setting
          this parameter to three yields an efficient and precise
          analysis") *)
  max_dtree_nums : int;      (** numerical variables per decision-tree pack *)
  useful_packs_only : (string * int list) option;
      (** when [Some (tag, ids)], reuse the list of useful octagon packs
          output by a previous analysis (Sect. 7.2.2) *)
  (* ---- model of the environment (Sect. 4) -------------------------- *)
  max_clock : int;
      (** maximal number of clock ticks (maximal continuous operating
          time over the clock period) *)
  (* ---- memory-domain implementation (Sect. 6.1.2 ablation) --------- *)
  expand_array_max : int;
      (** arrays up to this size are expanded cell-per-cell; larger ones
          are shrunk into a single cell (Sect. 6.1.1) *)
  naive_environments : bool;
      (** use the naive array-based environments instead of sharable
          functional maps — only for the E5 ablation *)
  (* ---- parallel analysis (Astree_parallel) ------------------------- *)
  jobs : int;
      (** number of worker processes: [n > 1] runs the per-task
          analyses of a multi-task program on a fork-based pool whose
          results are merged deterministically, and a single-task
          analysis under the split hook runs its main loop as two
          processes with the same result *)
  (* ---- incremental analysis (Astree_incremental) ------------------- *)
  summary_cache : cache;
      (** the call memo's keyed tier: [Cache_dir d] keeps function
          summaries in directory [d], so identical (callee fingerprint,
          framed entry state) pairs are analyzed once across runs and
          processes.  Never affects analysis results, only their cost —
          hence excluded from the config fingerprint *)
  (* ---- resource budget (Astree_robust) ------------------------------ *)
  timeout : float;
      (** wall-clock budget in seconds for the whole analysis; [0.] means
          unbounded.  When the budget trips, the robust subsystem sheds
          precision (soundly) instead of aborting *)
  max_mem_mb : int;
      (** major-heap watermark in MiB; [0] means unbounded.  Same
          degradation behaviour as [timeout] *)
  shed_packs_above : int option;
      (** when [Some k], relational packs (octagon, ellipsoid, decision
          tree) with more than [k] variables are dropped to intervals.
          [None] keeps every pack.  Set by the degradation ladder, not by
          end users directly; affects results (soundly: fewer packs can
          only lose precision), hence part of the config fingerprint *)
  (* ---- multi-task interference analysis (Astree_conc) --------------- *)
  conc_shared : string list;
      (** names of the shared (interference-carrying) variables of a
          multi-task analysis: another task may overwrite them between
          any two statements, so relational packs over them would carry
          stale relations — {!Packing.compute} excludes them.  [[]] for
          single-task analyses (the default): nothing changes.  Set by
          the interference fixpoint driver, not by end users *)
  conc_rely_digest : string;
      (** digest of the interference (rely) map installed for this
          per-task run, [""] outside multi-task analyses.  Semantically
          inert by itself, but it identifies the rely environment the
          run's transfer functions consult — folding it into the config
          fingerprint makes function summaries self-identify their
          interference round, so the summary cache stays sound across
          outer-fixpoint rounds *)
}

and cache = Cache_off | Cache_dir of string

let default : t =
  {
    use_clocked = true;
    use_octagons = true;
    use_ellipsoids = true;
    use_decision_trees = true;
    use_linearization = true;
    widening_thresholds = Astree_domains.Thresholds.default;
    delay_widening = 2;
    widening_fairness = 8;
    loop_unroll = 1;
    loop_unroll_overrides = [];
    narrowing_iterations = 2;
    float_iteration_epsilon = 1e-6;
    partitioned_functions = [];
    max_partitions = 16;
    max_octagon_pack = 6;
    max_dtree_bools = 3;
    max_dtree_nums = 4;
    useful_packs_only = None;
    max_clock = 3_600_000;
      (* 10 h of continuous operation at 100 Hz, a typical flight bound *)
    expand_array_max = 64;
    naive_environments = false;
    jobs = 1;
    summary_cache = Cache_off;
    timeout = 0.;
    max_mem_mb = 0;
    shed_packs_above = None;
    conc_shared = [];
    conc_rely_digest = "";
  }

let cache_enabled (cfg : t) : bool = cfg.summary_cache <> Cache_off

(** The baseline configuration corresponding to the analyzer of [5] the
    paper started from: intervals, the clocked domain and widening with
    thresholds, but none of this paper's refinements (symbolic
    linearization, octagons, ellipsoids, decision trees, trace
    partitioning).  Used as the reference point of the alarm-reduction
    experiment (E2). *)
let baseline : t =
  {
    default with
    use_octagons = false;
    use_ellipsoids = false;
    use_decision_trees = false;
    use_linearization = false;
  }

(** Plain interval analysis: no clocked domain, no thresholds, classical
    widening.  The "industrialized general-purpose analyzer" starting
    point of Sect. 2. *)
let intervals_only : t =
  {
    baseline with
    use_clocked = false;
    widening_thresholds = Astree_domains.Thresholds.none;
    delay_widening = 0;
    loop_unroll = 0;
  }

let unroll_for (cfg : t) (loop_id : int) : int =
  match List.assoc_opt loop_id cfg.loop_unroll_overrides with
  | Some n -> n
  | None -> cfg.loop_unroll
