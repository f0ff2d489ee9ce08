(* Seeded, count-bounded request plans for the benchmark workloads.

   A plan is a pure function of (workload, seed, request count): the
   same arguments give byte-identical sources and the same request
   sequence, so every run of a workload does identical work.  Across
   seeds the work stays the same: the programs, the number of requests
   per program and the number of edits are fixed, and the seed picks the
   request order and where each edit lands. *)

module G = Astree_gen

type input = {
  file : string;  (* file name; also the name sent to the daemon *)
  source : string;
  bugs : bool;  (* generated with injected bugs: the oracle checks it *)
}

type t = {
  base : input list;
      (* set-up inputs: the store fill of [incremental], the resident
         set of [daemon]; empty for the one-shot workloads *)
  requests : (int * input) list;  (* (client, input) in sending order *)
}

let workloads = [ "oneshot"; "oneshot_j2"; "incremental"; "daemon" ]

let bug_ratio = 0.05

let member ~seed ~kloc ~fuse ~bugs =
  (G.Generator.generate
     {
       G.Generator.seed;
       target_lines = int_of_float (kloc *. 1000.);
       mix = G.Shapes.all_safe_kinds;
       bug_ratio = (if bugs then bug_ratio else 0.);
       fuse;
     })
    .G.Generator.source

(* An octagon-heavy filter cascade in the style of the E15 experiment:
   [stages] stage functions of [width] chained averaging filters with a
   clamp, one overflowing and one safe conversion per stage.  Constants
   are dyadic, so every abstract bound is exact in float. *)
let cascade ~stages ~width =
  let b = Buffer.create 8192 in
  let add fmt = Printf.bprintf b fmt in
  for s = 0 to stages - 1 do
    add "volatile float u%d;\n" s;
    for v = 0 to width - 1 do
      add "float x%d_%d;\n" s v
    done;
    add "short o%d;\nshort p%d;\n" s s
  done;
  for s = 0 to stages - 1 do
    add "void stage%d(void) {\n  x%d_0 = u%d;\n" s s s;
    for v = 1 to width - 1 do
      add "  x%d_%d = 0.5f * x%d_%d + 0.5f * x%d_%d;\n" s v s v s (v - 1);
      add "  if (x%d_%d - x%d_%d > 0.25f) { x%d_%d = x%d_%d + 0.25f; }\n" s v
        s (v - 1) s v s (v - 1)
    done;
    add "  o%d = (short)(x%d_%d * 65536.0f);\n" s s (width - 1);
    add "  p%d = (short)(x%d_%d * 128.0f);\n}\n" s s (width - 1)
  done;
  add "int main(void) {\n";
  for s = 0 to stages - 1 do
    add "  __astree_input_range(u%d, -1.0, 1.0);\n" s;
    for v = 0 to width - 1 do
      add "  x%d_%d = 0.0f;\n" s v
    done
  done;
  add "  while (1) {\n";
  for s = 0 to stages - 1 do
    add "    stage%d();\n" s
  done;
  add "    __astree_wait_for_clock();\n  }\n  return 0;\n}\n";
  Buffer.contents b

(* Byte offsets just past the opening brace of every stage function
   ([stage_k] of fused family members, [stageK] of cascades). *)
let stage_bodies src =
  let pat = "void stage" in
  let n = String.length src and m = String.length pat in
  let rec scan i acc =
    if i + m > n then List.rev acc
    else if String.sub src i m = pat then
      match String.index_from_opt src i '{' with
      | Some j -> scan (j + 1) ((j + 1) :: acc)
      | None -> List.rev acc
    else scan (i + 1) acc
  in
  scan 0 []

(* Edit one stage function: insert a dead block tagged [tag] at the top
   of its body.  The program's alarms are unchanged but its typed IR is
   not, so the edited program has a new digest and a new cache key. *)
let edit ~stage ~tag src =
  match stage_bodies src with
  | [] -> invalid_arg "Plan.edit: no stage function"
  | bodies ->
      let at = List.nth bodies (stage mod List.length bodies) in
      String.sub src 0 at
      ^ Printf.sprintf "\n  { int pb_edit; pb_edit = %d; }" tag
      ^ String.sub src at (String.length src - at)

(* One-shot members (kLOC), each requested once per round; the 2 kLOC
   member carries injected bugs.  An odd member count puts the median
   request on one member's samples, never between two members.  One
   round takes about 4 s at -j 1 on a 2-core machine.  A single-process
   request runs at the speed of the core it lands on, which drifts on a
   shared machine, so this workload needs the most requests per run. *)
let oneshot_sizes = [| 1.; 4.; 2.; 8.; 4. |]

(* Request counts, fixed so that the measured phase lasts about
   [seconds] on a 2-core machine. *)
let requests_for ~workload ~seconds =
  match workload with
  | "oneshot" | "oneshot_j2" ->
      Array.length oneshot_sizes * max 1 (seconds * 5 / 12)
  | "incremental" -> max 4 (seconds * 3)
  | _ -> max 4 (seconds * 8)

(* Programs are fixed; the seed picks the request order and the edits.
   Family members of one size differ by up to several-fold in cost from
   one generator seed to the next, so seeded programs would make the
   work per run depend on the seed.  The fused generator seeds give
   clean members of similar cost. *)
let fused ~name ~gen_seed =
  {
    file = name;
    source = member ~seed:gen_seed ~kloc:2. ~fuse:16 ~bugs:false;
    bugs = false;
  }

let cascade_input ~name =
  { file = name; source = cascade ~stages:4 ~width:16; bugs = false }

(* Every third request for a base program is an edited copy.  With
   three base programs each unchanged one gets 2/9 of the requests and
   each edited one 1/9, so no set of classes adds up to one half: the
   median request falls inside a class, not on a boundary. *)
let edit_every = 3

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let make ~workload ~seed ~requests =
  let rng = Random.State.make [| seed; 0x9e3779b9 |] in
  (* requests over a base set: each client gets the same multiset (every
     base equally often, every [edit_every]-th request for a base edited)
     in its own seeded order, so the work per run does not depend on the
     seed; every edit is distinct *)
  let over_base base ~clients =
    let base = Array.of_list base in
    let nb = Array.length base in
    let per_client =
      Array.init clients (fun c ->
          let n = (requests / clients) + if c < requests mod clients then 1 else 0 in
          let slots = Array.init n (fun i -> (i mod nb, i / nb mod edit_every = edit_every - 1)) in
          shuffle rng slots;
          Array.mapi
            (fun i (b, edited) ->
              let b = base.(b) in
              if not edited then b
              else
                let tag = (c * 1000) + i + 1 in
                {
                  b with
                  file = Printf.sprintf "e%d_%03d.c" c i;
                  source = edit ~stage:(Random.State.int rng 64) ~tag b.source;
                })
            slots)
    in
    List.init requests (fun i ->
        let c = i mod clients in
        (c, per_client.(c).(i / clients)))
  in
  match workload with
  | "oneshot" | "oneshot_j2" ->
      let members =
        Array.mapi
          (fun i kloc ->
            let bugs = kloc = 2. in
            let source = member ~seed:(i + 1) ~kloc ~fuse:1 ~bugs in
            { file = Printf.sprintf "m%d.c" i; source; bugs })
          oneshot_sizes
      in
      let n = Array.length members in
      let rounds =
        List.init ((requests + n - 1) / n) (fun _ ->
            let r = Array.copy members in
            shuffle rng r;
            Array.to_list r)
      in
      let requests =
        List.concat rounds
        |> List.filteri (fun i _ -> i < requests)
        |> List.map (fun m -> (0, m))
      in
      { base = []; requests }
  | "incremental" ->
      let base =
        List.mapi
          (fun i gen_seed -> fused ~name:(Printf.sprintf "b%d.c" i) ~gen_seed)
          [ 4; 5; 8 ]
      in
      { base; requests = over_base base ~clients:1 }
  | "daemon" ->
      let base =
        [
          fused ~name:"b0.c" ~gen_seed:6;
          fused ~name:"b1.c" ~gen_seed:7;
          cascade_input ~name:"c0.c";
        ]
      in
      { base; requests = over_base base ~clients:2 }
  | w -> invalid_arg ("unknown workload " ^ w)

(* Every distinct input of a plan, base first, in first-use order. *)
let inputs (p : t) =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun i ->
      if Hashtbl.mem seen i.file then false
      else begin
        Hashtbl.replace seen i.file ();
        true
      end)
    (p.base @ List.map snd p.requests)

(* The plan file read by run.py and [pb]: one line per base input
   ("B file bugs") and per request ("R client file bugs"). *)
let manifest (p : t) =
  let b = Buffer.create 1024 in
  let flag i = if i.bugs then 1 else 0 in
  List.iter (fun i -> Printf.bprintf b "B\t%s\t%d\n" i.file (flag i)) p.base;
  List.iter
    (fun (c, i) -> Printf.bprintf b "R\t%d\t%s\t%d\n" c i.file (flag i))
    p.requests;
  Buffer.contents b

(* Write every input and the manifest into [dir]. *)
let write (p : t) ~dir =
  let put name s =
    let oc = open_out_bin (Filename.concat dir name) in
    output_string oc s;
    close_out oc
  in
  List.iter (fun i -> put i.file i.source) (inputs p);
  put "plan.tsv" (manifest p)
