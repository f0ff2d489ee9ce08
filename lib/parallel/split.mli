(** The helper process of a split main loop (DESIGN.md §7): the
    {!Astree_core.Transfer.split} hook.

    The hook forks one helper when the loop starts.  The helper runs
    its half of the loop and sends its vote at each decision over a
    pipe; when the loop ends it sends its half with its registry delta
    and trace events ({!Astree_obs.Observed}), which the parent absorbs
    after its own.  A helper that [Faultsim]'s [Worker_crash] kills,
    that dies, sends a torn or out-of-step message or closes its pipe,
    and a half that reaches bottom, end the split: the helper is
    killed, the registry and the trace drop what the parent's half
    counted and emitted, and the loop runs again in the parent alone.
    [par.recomputed] counts a loop run again for a lost helper; a half
    at bottom is an outcome of the analysis and counts nothing.  The
    parent reaps the helper on every path, an exception (a budget trip,
    an interrupt) included; while it waits for a vote it polls the
    budget.  [par.split_loops] counts the helpers forked. *)

val split : Astree_core.Transfer.split
