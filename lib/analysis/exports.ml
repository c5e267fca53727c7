(* UNUSED-EXPORT: a census of who references what, over Parsetrees.

   Every [.ml] (and every [.mli], for the types it names) is walked once
   with a lexical scope of opened modules and local module aliases.
   Each identifier, constructor, label, type and module path becomes
   the set of fully-qualified paths the scope allows it to mean: without
   a typing pass the walker cannot pick one, and over-approximating is
   the safe direction — an extra candidate can only hide an unused
   export, never report a used one.  Module aliases at structure level
   ([module Cluster = Transport.Cluster] in the facade) also enter a
   global table, so once every file is in, [Mwregister.Live.Cluster.x]
   canonicalises to [Transport.Cluster.x]. *)

open Parsetree

type kind =
  | Value  (** an identifier: uses exactly that path *)
  | Name  (** a type, constructor, label or module-type path *)
  | Whole  (** [(module M)], [include M], [F (M)]: every export of [M] *)

type use = { from : string; test : bool; kind : kind; paths : string list }

type st = {
  aliases : (string, string list) Hashtbl.t;  (* alias path -> targets *)
  mutable uses : use list;
}

type ctx = {
  modname : string;
  in_test : bool;
  sibling : string option;  (* the file's library wrapper *)
  mutable path : string;  (* enclosing module path *)
  mutable opens : string list;
  mutable locals : (string * string list) list;
}

let rec flat = function
  | Longident.Lident s -> Some [ s ]
  | Ldot (l, s) -> Option.map (fun p -> p @ [ s ]) (flat l)
  | Lapply _ -> None

(* A path head may be a local alias, a global library module, a
   sibling in the same library, or a submodule of anything opened. *)
let resolve_mod ctx = function
  | [] -> []
  | head :: rest ->
    let tail = String.concat "" (List.map (( ^ ) ".") rest) in
    let sub m = m ^ "." ^ head in
    List.map
      (fun h -> h ^ tail)
      (Option.value ~default:[] (List.assoc_opt head ctx.locals)
      @ (head :: Option.to_list (Option.map sub ctx.sibling))
      @ List.map sub ctx.opens)

let resolve_item ctx lid =
  match Option.map List.rev (flat lid) with
  | None | Some [] -> []
  | Some [ v ] -> List.map (fun o -> o ^ "." ^ v) ctx.opens
  | Some (v :: rev_prefix) ->
    List.map (fun m -> m ^ "." ^ v) (resolve_mod ctx (List.rev rev_prefix))

let record st ctx kind paths =
  if paths <> [] then
    st.uses <-
      { from = ctx.modname; test = ctx.in_test; kind; paths } :: st.uses

let iterator st ctx =
  let open Ast_iterator in
  let scoped f =
    let opens = ctx.opens and locals = ctx.locals and path = ctx.path in
    f ();
    ctx.opens <- opens;
    ctx.locals <- locals;
    ctx.path <- path
  in
  let mod_paths lid = Option.fold ~none:[] ~some:(resolve_mod ctx) (flat lid) in
  let open_ lid = ctx.opens <- mod_paths lid @ ctx.opens in
  (* [module name = me]: an alias is recorded (globally, for paths
     through it from other files) but is not itself a use; anything
     else is walked as a submodule of the current path. *)
  let bind self name me =
    let here = ctx.path ^ "." ^ name in
    let alias lid =
      let targets = mod_paths lid in
      Hashtbl.replace st.aliases here targets;
      targets
    in
    let targets =
      match me.pmod_desc with
      | Pmod_ident lid -> alias lid.txt
      | Pmod_constraint ({ pmod_desc = Pmod_ident lid; _ }, mty) ->
        self.module_type self mty;
        alias lid.txt
      | _ ->
        scoped (fun () ->
            ctx.path <- here;
            self.module_expr self me);
        [ here ]
    in
    ctx.locals <- (name, targets) :: ctx.locals
  in
  let name lid = record st ctx Name (resolve_item ctx lid) in
  let labels fields =
    List.iter (fun (lid, _) -> name lid.Location.txt) fields
  in
  let in_scope self f items = scoped (fun () -> List.iter (f self) items) in
  {
    default_iterator with
    structure = (fun self -> in_scope self self.structure_item);
    signature = (fun self -> in_scope self self.signature_item);
    structure_item =
      (fun self item ->
        match item.pstr_desc with
        | Pstr_open { popen_expr = { pmod_desc = Pmod_ident lid; _ }; _ } ->
          open_ lid.txt
        | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } ->
          bind self name pmb_expr
        | Pstr_include
            { pincl_mod = { pmod_desc = Pmod_ident lid; _ } as me; _ } ->
          self.module_expr self me;
          open_ lid.txt
        | _ -> default_iterator.structure_item self item);
    signature_item =
      (fun self item ->
        match item.psig_desc with
        | Psig_open { popen_expr = lid; _ } -> open_ lid.txt
        | _ -> default_iterator.signature_item self item);
    expr =
      (fun self e ->
        match e.pexp_desc with
        | Pexp_open ({ popen_expr = { pmod_desc = Pmod_ident lid; _ }; _ }, b)
          ->
          scoped (fun () ->
              open_ lid.txt;
              self.expr self b)
        | Pexp_letmodule ({ txt = Some name; _ }, me, b) ->
          scoped (fun () ->
              bind self name me;
              self.expr self b)
        | _ ->
          (match e.pexp_desc with
          | Pexp_ident lid -> record st ctx Value (resolve_item ctx lid.txt)
          | Pexp_construct (lid, _)
          | Pexp_field (_, lid)
          | Pexp_setfield (_, lid, _) ->
            name lid.txt
          | Pexp_record (fields, _) -> labels fields
          | Pexp_letop { let_; ands; _ } ->
            List.iter
              (fun op ->
                record st ctx Value
                  (resolve_item ctx (Lident op.pbop_op.txt)))
              (let_ :: ands)
          | _ -> ());
          default_iterator.expr self e);
    pat =
      (fun self p ->
        match p.ppat_desc with
        | Ppat_open (lid, inner) ->
          scoped (fun () ->
              open_ lid.txt;
              self.pat self inner)
        | _ ->
          (match p.ppat_desc with
          | Ppat_construct (lid, _) -> name lid.txt
          | Ppat_record (fields, _) -> labels fields
          | _ -> ());
          default_iterator.pat self p);
    typ =
      (fun self t ->
        (match t.ptyp_desc with
        | Ptyp_constr (lid, _) | Ptyp_package (lid, _) -> name lid.txt
        | _ -> ());
        default_iterator.typ self t);
    module_expr =
      (fun self me ->
        (match me.pmod_desc with
        | Pmod_ident lid -> record st ctx Whole (mod_paths lid.txt)
        | _ -> ());
        default_iterator.module_expr self me);
    module_type =
      (fun self mt ->
        (match mt.pmty_desc with
        | Pmty_ident lid -> name lid.txt
        | Pmty_alias lid -> record st ctx Whole (mod_paths lid.txt)
        | _ -> ());
        default_iterator.module_type self mt);
  }

let components path = String.split_on_char '/' path

let ctx_of path =
  let modname = Rules.module_name_of_path path in
  {
    modname;
    in_test = List.mem "test" (components path);
    sibling =
      Option.map (String.sub modname 0) (String.index_opt modname '.');
    path = modname;
    opens = [];
    locals = [];
  }

(* [path] and every spelling its aliases expand to, longest aliased
   prefix first (an alias chain is short; the depth bound only guards
   a cycle). *)
let canonical aliases path =
  let rec go depth acc path =
    let acc = path :: acc in
    let rec cut i =
      match Hashtbl.find_opt aliases (String.sub path 0 i) with
      | Some targets when depth < 8 ->
        let rest = String.sub path i (String.length path - i) in
        List.fold_left (fun acc t -> go (depth + 1) acc (t ^ rest)) acc targets
      | Some _ | None -> (
        match String.rindex_from_opt path (i - 1) '.' with
        | Some j -> cut j
        | None -> acc)
    in
    cut (String.length path)
  in
  go 0 [] path

(* "A.B.c" -> ["A.B.c"; "A.B"; "A"] *)
let prefixes name =
  let rec go i acc =
    match String.index_from_opt name i '.' with
    | Some j -> go (j + 1) (String.sub name 0 j :: acc)
    | None -> name :: acc
  in
  go 0 []

(* A lib interface's exports, nested module signatures included: its
   values, and its types with the constructors and labels that name
   them. *)
type export =
  | Val of string
  | Type of { name : string; parts : string list }

let rec exports prefix items acc =
  List.fold_left
    (fun acc item ->
      match item.psig_desc with
      | Psig_value vd ->
        (Val (prefix ^ "." ^ vd.pval_name.txt), vd.pval_loc) :: acc
      | Psig_type (_, decls) ->
        List.fold_left
          (fun acc td ->
            let parts =
              match td.ptype_kind with
              | Ptype_variant cs -> List.map (fun c -> c.pcd_name.txt) cs
              | Ptype_record ls -> List.map (fun l -> l.pld_name.txt) ls
              | Ptype_abstract | Ptype_open -> []
            in
            let q n = prefix ^ "." ^ n in
            ( Type { name = q td.ptype_name.txt; parts = List.map q parts },
              td.ptype_loc )
            :: acc)
          acc decls
      | Psig_module
          {
            pmd_name = { txt = Some n; _ };
            pmd_type = { pmty_desc = Pmty_signature s; _ };
            _;
          } ->
        exports (prefix ^ "." ^ n) s acc
      | _ -> acc)
    acc items

(* The types an interface mentions by their bare name, as
   [prefix.name]: in its values' types and in its other type
   declarations (a declaration naming itself does not count).  Such a
   type is part of the surface those items export, and is judged
   through them. *)
let rec mentions prefix items acc =
  let collect ~self f =
    let open Ast_iterator in
    let it =
      {
        default_iterator with
        typ =
          (fun it t ->
            (match t.ptyp_desc with
            | Ptyp_constr ({ txt = Lident n; _ }, _) when Some n <> self ->
              Hashtbl.replace acc (prefix ^ "." ^ n) ()
            | _ -> ());
            default_iterator.typ it t);
      }
    in
    f it
  in
  List.iter
    (fun item ->
      match item.psig_desc with
      | Psig_type (_, decls) ->
        List.iter
          (fun td ->
            collect ~self:(Some td.ptype_name.txt) (fun it ->
                it.type_declaration it td))
          decls
      | Psig_module
          {
            pmd_name = { txt = Some n; _ };
            pmd_type = { pmty_desc = Pmty_signature s; _ };
            _;
          } ->
        mentions (prefix ^ "." ^ n) s acc
      | _ -> collect ~self:None (fun it -> it.signature_item it item))
    items

let census ~keep ~(intfs : Source.intf list) (sources : Source.t list) =
  let st = { aliases = Hashtbl.create 64; uses = [] } in
  List.iter
    (fun (src : Source.t) ->
      let it = iterator st (ctx_of src.path) in
      it.structure it src.ast)
    sources;
  List.iter
    (fun (i : Source.intf) ->
      let it = iterator st (ctx_of i.path) in
      it.signature it i.ast)
    intfs;
  (* path -> referencing modules: values, whole-module uses, and every
     module prefix reached from outside test/. *)
  let vals = Hashtbl.create 4096
  and names = Hashtbl.create 4096
  and whole = Hashtbl.create 256
  and mods = Hashtbl.create 1024 in
  List.iter
    (fun u ->
      List.iter
        (fun c ->
          (match u.kind with
          | Value -> Hashtbl.add vals c u.from
          | Whole -> Hashtbl.add whole c u.from
          | Name -> Hashtbl.add names c u.from);
          if not u.test then
            List.iter (fun m -> Hashtbl.add mods m u.from) (prefixes c))
        (List.concat_map (canonical st.aliases) u.paths))
    st.uses;
  let used tbl ~own key = List.exists (( <> ) own) (Hashtbl.find_all tbl key) in
  let finding (i : Source.intf) loc name msg =
    ( name,
      Finding.of_loc ~rule:Rules.unused_export
        ~severity:(Rules.severity_of Rules.unused_export)
        ~file:i.path loc
        (msg ^ " (or justify it in Rules.export_keep)") )
  in
  let judge (i : Source.intf) =
    let m = Rules.module_name_of_path i.path in
    let own = Hashtbl.create 16 in
    mentions m i.ast own;
    let reached tbl path =
      used tbl ~own:m path || List.exists (used whole ~own:m) (prefixes path)
    in
    let unused_exports =
      List.filter_map
        (fun (e, loc) ->
          match e with
          | Val v ->
            if reached vals v then None
            else
              Some
                (finding i loc v
                   (Printf.sprintf
                      "%s is exported but nothing outside %s uses it: \
                       delete it or drop it from the .mli"
                      v m))
          | Type { name; parts } ->
            if Hashtbl.mem own name || List.exists (reached names) (name :: parts)
            then None
            else
              Some
                (finding i loc name
                   (Printf.sprintf
                      "type %s is exported but nothing outside %s names it, \
                       its constructors or its labels: delete it or drop \
                       it from the .mli"
                      name m)))
        (exports m i.ast [])
    in
    if used mods ~own:m m then
      unused_exports
    else
      let loc =
        match i.ast with item :: _ -> item.psig_loc | [] -> Location.none
      in
      finding i loc m
        (Printf.sprintf
           "library module %s is reached only from test/: delete it" m)
      :: unused_exports
  in
  let in_lib (i : Source.intf) = List.mem "lib" (components i.path) in
  let raw = List.concat_map judge (List.filter in_lib intfs) in
  let excuses (pat, _) (name, _) = Rules.pattern_matches pat name in
  ( List.filter_map
      (fun r ->
        if List.exists (fun k -> excuses k r) keep then None else Some (snd r))
      raw,
    List.filter_map
      (fun k -> if List.exists (excuses k) raw then None else Some (fst k))
      keep )

let check ~keep ~intfs sources =
  if intfs = [] then ([], []) else census ~keep ~intfs sources
