(** The full abstract state: memory environment, relational packs and the
    hidden clock variable of the clocked domain (Sect. 6.2.1). *)

module D = Astree_domains

type t = {
  bot : bool;
  env : Env.t;
  rel : Relstate.t;
  clock : D.Itv.t;  (** range of the hidden clock counter *)
}

let bottom : t =
  {
    bot = true;
    env = Env.empty ~naive:false ~ncells:0;
    rel = Relstate.empty;
    clock = D.Itv.Bot;
  }

let is_bot (s : t) = s.bot

let make ~env ~rel ~clock = { bot = false; env; rel; clock }

let join (a : t) (b : t) : t =
  if a.bot then b
  else if b.bot then a
  else
    {
      bot = false;
      env = Env.join a.env b.env;
      rel = Relstate.join a.rel b.rel;
      clock = D.Itv.join a.clock b.clock;
    }

let meet (a : t) (b : t) : t =
  if a.bot || b.bot then bottom
  else
    {
      bot = false;
      env = Env.meet a.env b.env;
      rel = Relstate.meet a.rel b.rel;
      clock = D.Itv.meet a.clock b.clock;
    }

(* The clock's upper bound widens straight to [max_clock] (DESIGN.md §6):
   only [Transfer.wait] moves the clock, so an unstable upper bound at a
   loop head means some path back to the head ticks, and every threshold
   below [max_clock] would be passed on the next iterate anyway.  The
   lower bound keeps the threshold widening. *)
let widen_clock ~thresholds ~max_clock (a : D.Itv.t) (b : D.Itv.t) : D.Itv.t =
  match (a, b) with
  | D.Itv.Int (_, y), D.Itv.Int (x', y') when y' > y -> (
      match D.Itv.widen ~thresholds a (D.Itv.Int (x', y)) with
      | D.Itv.Int (x, _) -> D.Itv.Int (x, Int.max y' max_clock)
      | w -> w)
  | _ -> D.Itv.widen ~thresholds a b

let widen ~thresholds ~max_clock (a : t) (b : t) : t =
  if a.bot then b
  else if b.bot then a
  else
    {
      bot = false;
      env = Env.widen ~thresholds a.env b.env;
      rel = Relstate.widen ~thresholds a.rel b.rel;
      clock = widen_clock ~thresholds ~max_clock a.clock b.clock;
    }

let narrow (a : t) (b : t) : t =
  if a.bot || b.bot then bottom
  else
    {
      bot = false;
      env = Env.narrow a.env b.env;
      rel = Relstate.narrow a.rel b.rel;
      clock = D.Itv.narrow a.clock b.clock;
    }

let subset (a : t) (b : t) : bool =
  a.bot
  || ((not b.bot)
     && Env.subset a.env b.env
     && Relstate.subset a.rel b.rel
     && D.Itv.subset a.clock b.clock)

let equal (a : t) (b : t) : bool =
  (a.bot && b.bot)
  || ((not a.bot) && (not b.bot)
     && Env.equal a.env b.env
     && Relstate.equal a.rel b.rel
     && D.Itv.equal a.clock b.clock)

(** The floating iteration perturbation F-hat of Sect. 7.1.4: enlarge
    every float interval bound by a relative epsilon before the widening
    step, so that abstract rounding noise does not prevent the
    stabilization check from succeeding. *)
let perturb (eps : float) (s : t) : t =
  if s.bot || eps <= 0.0 then s
  else
    let pert_itv (i : D.Itv.t) : D.Itv.t =
      match i with
      | D.Itv.Float (a, b) ->
          D.Itv.Float
            ( Float_pert.down eps a,
              Float_pert.up eps b )
      | i -> i
    in
    let pert_av (v : Avalue.t) : Avalue.t =
      { v with D.Clocked.v = pert_itv v.D.Clocked.v }
    in
    { s with env = Env.map_all pert_av s.env }
