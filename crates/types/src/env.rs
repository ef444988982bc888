//! Type environments: named type definitions and declared subtype edges.
//!
//! The paper contrasts two disciplines for the subtype hierarchy:
//!
//! * **Structural** (Amber, Galileo): "type declarations ... serve only to
//!   create names for types", and `Employee ≤ Person` is *inferred* from the
//!   structure of the definitions.
//! * **Declared** (Adaplex): "types with the same structure are not
//!   necessarily identical, and the subtype hierarchy has to be explicitly
//!   defined by means of `include` directives".
//!
//! A [`TypeEnv`] supports both: definitions are always structural
//! abbreviations, but a [`SubtypePolicy`] chooses whether subtyping between
//! *named* types is inferred or must follow declared `include` edges.

use crate::cache::SubtypeCache;
use crate::error::TypeError;
use crate::ty::{Name, Type};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Which discipline governs subtyping between named types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SubtypePolicy {
    /// Amber/Galileo: names abbreviate structures; subtyping is structural
    /// everywhere.
    #[default]
    Structural,
    /// Adaplex: two named types are related only if an `include` chain
    /// relates them (each `include` is checked structurally when declared).
    Declared,
}

/// A collection of named type definitions plus a declared subtype graph.
///
/// The definition map and the declared-edge graph live behind [`Arc`]s
/// with copy-on-write mutation, so cloning an env is O(1) regardless of
/// schema size — a clone shares the maps until either side mutates. This
/// mirrors the generation-stamped cache sharing below and is what lets
/// an MVCC snapshot carry the whole schema for free.
#[derive(Debug, Clone, Default)]
pub struct TypeEnv {
    defs: Arc<BTreeMap<Name, Type>>,
    /// Direct declared supertypes: `include Employee in Person` puts
    /// `Person` in `declared_sups["Employee"]`.
    declared_sups: Arc<BTreeMap<Name, BTreeSet<Name>>>,
    policy: SubtypePolicy,
    /// How many times this env has been mutated. Observability only — see
    /// the invalidation contract in [`crate::cache`].
    generation: u64,
    /// Memoized subtype verdicts, valid for exactly this generation's
    /// definitions/edges/policy. Clones share the table until one side
    /// mutates; [`TypeEnv::touch`] swaps in a fresh one so a mutated env
    /// can never serve (or be served) verdicts from another schema.
    cache: Arc<SubtypeCache>,
}

impl TypeEnv {
    /// An empty environment with the structural policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty environment with the given policy.
    pub fn with_policy(policy: SubtypePolicy) -> Self {
        TypeEnv {
            policy,
            ..Self::default()
        }
    }

    /// The active subtype policy.
    pub fn policy(&self) -> SubtypePolicy {
        self.policy
    }

    /// Change the active subtype policy.
    pub fn set_policy(&mut self, policy: SubtypePolicy) {
        self.policy = policy;
        self.touch();
    }

    /// Invalidate memoized subtype verdicts: bump the generation and swap
    /// in a fresh cache. Called by every mutating operation; envs that
    /// still share the old `Arc` (pre-mutation clones) keep using it,
    /// which is sound because their definitions did not change.
    fn touch(&mut self) {
        self.generation += 1;
        self.cache = Arc::new(SubtypeCache::new());
    }

    /// The mutation generation (bumped whenever definitions, declared
    /// edges or the policy change).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The subtype memo table for this generation (hit/miss statistics;
    /// populated by [`crate::subtype::is_subtype`]).
    pub fn subtype_cache(&self) -> &SubtypeCache {
        &self.cache
    }

    /// Declare `name` as an abbreviation for `ty`.
    ///
    /// The definition may be recursive (mention `name`, directly or through
    /// other names), but must be *contractive*: every cycle of names must
    /// pass through a `Record`, `Variant`, `List`, `Set` or `Fun`
    /// constructor. `type A = A` (or `type A = B; type B = A`) is rejected
    /// because it denotes no type, keeping all type-level computation
    /// terminating — the decidability property the paper calls "obviously
    /// desirable".
    pub fn declare(&mut self, name: impl Into<Name>, ty: Type) -> Result<(), TypeError> {
        let name = name.into();
        if self.defs.contains_key(&name) {
            return Err(TypeError::Duplicate(name));
        }
        Arc::make_mut(&mut self.defs).insert(name.clone(), ty);
        if let Err(e) = self.check_contractive(&name) {
            Arc::make_mut(&mut self.defs).remove(&name);
            return Err(e);
        }
        self.touch();
        Ok(())
    }

    /// Declare `name = ty` replacing any existing definition (used by schema
    /// evolution, where re-declaration at a consistent type is the point).
    pub fn redeclare(&mut self, name: impl Into<Name>, ty: Type) {
        Arc::make_mut(&mut self.defs).insert(name.into(), ty);
        self.touch();
    }

    /// Look up the definition of a name.
    pub fn lookup(&self, name: &str) -> Option<&Type> {
        self.defs.get(name)
    }

    /// Resolve a name, erroring when undefined.
    pub fn resolve(&self, name: &str) -> Result<&Type, TypeError> {
        self.defs
            .get(name)
            .ok_or_else(|| TypeError::Unknown(name.to_string()))
    }

    /// Iterate over every named definition.
    pub fn definitions(&self) -> impl Iterator<Item = (&Name, &Type)> {
        self.defs.iter()
    }

    /// All declared names.
    pub fn names(&self) -> impl Iterator<Item = &Name> {
        self.defs.keys()
    }

    /// Number of declared names.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether no names are declared.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Adaplex's `include sub in sup`: declare `sub` a subtype of `sup`.
    ///
    /// Regardless of policy, the declaration is *checked*: the structure of
    /// `sub` must be a structural subtype of the structure of `sup`, so that
    /// property (a) of the paper's introduction — any operation on a
    /// `Person` can be performed on an `Employee` — actually holds.
    pub fn declare_subtype(
        &mut self,
        sub: impl Into<Name>,
        sup: impl Into<Name>,
    ) -> Result<(), TypeError> {
        let sub = sub.into();
        let sup = sup.into();
        if !self.defs.contains_key(&sub) {
            return Err(TypeError::UnknownInDeclaration(sub));
        }
        if !self.defs.contains_key(&sup) {
            return Err(TypeError::UnknownInDeclaration(sup));
        }
        if self
            .declared_sups
            .get(&sub)
            .is_some_and(|s| s.contains(&sup))
        {
            // Already declared: nothing changes, so the cache stays.
            return Ok(());
        }
        let structurally_ok = {
            // Check against a structural view of this environment.
            // `set_policy` gives the view its own fresh memo table, so
            // structural verdicts cannot leak into a `Declared` cache.
            let mut view = self.clone();
            view.set_policy(SubtypePolicy::Structural);
            crate::subtype::is_subtype(&Type::Named(sub.clone()), &Type::Named(sup.clone()), &view)
        };
        if !structurally_ok {
            return Err(TypeError::IncompatibleDeclaration { sub, sup });
        }
        if self.declared_le(&sup, &sub) {
            // The edge would close a cycle: refuse it before it is added.
            return Err(TypeError::CyclicDeclaration(sub));
        }
        Arc::make_mut(&mut self.declared_sups)
            .entry(sub)
            .or_default()
            .insert(sup);
        self.touch();
        Ok(())
    }

    /// Is `sup` reachable from `sub` through declared edges (reflexively)?
    pub fn declared_le(&self, sub: &str, sup: &str) -> bool {
        if sub == sup {
            return true;
        }
        let mut seen = BTreeSet::new();
        let mut stack = vec![sub.to_string()];
        while let Some(n) = stack.pop() {
            if !seen.insert(n.clone()) {
                continue;
            }
            if let Some(sups) = self.declared_sups.get(&n) {
                for s in sups {
                    if s == sup {
                        return true;
                    }
                    stack.push(s.clone());
                }
            }
        }
        false
    }

    /// Direct declared supertypes of a name.
    pub fn declared_supertypes(&self, name: &str) -> impl Iterator<Item = &Name> {
        self.declared_sups.get(name).into_iter().flatten()
    }

    /// Verify that the (possibly mutually) recursive definition of `name`
    /// is contractive and mentions only known names.
    fn check_contractive(&self, name: &str) -> Result<(), TypeError> {
        // Walk the definition without crossing structural constructors;
        // if we can reach `name` again purely through name indirection the
        // definition is non-contractive.
        fn walk(
            env: &TypeEnv,
            ty: &Type,
            target: &str,
            visiting: &mut BTreeSet<Name>,
        ) -> Result<(), TypeError> {
            match ty {
                Type::Named(n) => {
                    if n == target {
                        return Err(TypeError::NonContractive(target.to_string()));
                    }
                    if visiting.insert(n.clone()) {
                        // Forward references are permitted (mutual recursion
                        // is declared one name at a time); they are
                        // re-checked by `validate`.
                        if let Some(def) = env.lookup(n) {
                            walk(env, def, target, visiting)?;
                        }
                    }
                    Ok(())
                }
                // Quantifier bodies are not guarded by a structural
                // constructor.
                Type::Forall(q) | Type::Exists(q) => {
                    if let Some(b) = &q.bound {
                        walk(env, b, target, visiting)?;
                    }
                    walk(env, &q.body, target, visiting)
                }
                // Everything else guards recursion.
                _ => Ok(()),
            }
        }
        let def = self.resolve(name)?;
        walk(self, def, name, &mut BTreeSet::new())
    }

    /// Check the whole environment: every `Named` reference resolves and
    /// every definition is contractive. Call after a batch of mutually
    /// recursive declarations.
    pub fn validate(&self) -> Result<(), TypeError> {
        for (name, def) in self.defs.iter() {
            for r in def.named_refs() {
                if !self.defs.contains_key(&r) {
                    return Err(TypeError::Unknown(r));
                }
            }
            self.check_contractive(name)?;
        }
        Ok(())
    }

    /// Expand a top-level `Named` reference one step; other types are
    /// returned unchanged. Errors on unknown names.
    pub fn unfold<'a>(&'a self, ty: &'a Type) -> Result<&'a Type, TypeError> {
        match ty {
            Type::Named(n) => self.resolve(n),
            _ => Ok(ty),
        }
    }

    /// Fully expand top-level `Named` indirection (guaranteed to terminate
    /// for validated, contractive environments).
    pub fn head_normal<'a>(&'a self, mut ty: &'a Type) -> Result<&'a Type, TypeError> {
        let mut steps = 0usize;
        while let Type::Named(n) = ty {
            ty = self.resolve(n)?;
            steps += 1;
            if steps > self.defs.len() + 1 {
                return Err(TypeError::NonContractive(n.clone()));
            }
        }
        Ok(ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_resolve() {
        let mut env = TypeEnv::new();
        env.declare("Person", Type::record([("Name", Type::Str)]))
            .unwrap();
        assert_eq!(
            env.resolve("Person").unwrap(),
            &Type::record([("Name", Type::Str)])
        );
        assert!(env.resolve("Nobody").is_err());
    }

    #[test]
    fn duplicate_rejected() {
        let mut env = TypeEnv::new();
        env.declare("A", Type::Int).unwrap();
        assert_eq!(
            env.declare("A", Type::Bool),
            Err(TypeError::Duplicate("A".into()))
        );
    }

    #[test]
    fn recursive_definition_allowed() {
        let mut env = TypeEnv::new();
        // type Part = {Name: Str, Components: List[Part]}
        env.declare(
            "Part",
            Type::record([
                ("Name", Type::Str),
                ("Components", Type::list(Type::named("Part"))),
            ]),
        )
        .unwrap();
        assert!(env.validate().is_ok());
    }

    #[test]
    fn non_contractive_rejected() {
        let mut env = TypeEnv::new();
        assert_eq!(
            env.declare("A", Type::named("A")),
            Err(TypeError::NonContractive("A".into()))
        );
        // the failed declaration must not linger
        assert!(env.lookup("A").is_none());
    }

    #[test]
    fn mutually_non_contractive_rejected_by_validate() {
        let mut env = TypeEnv::new();
        env.declare("A", Type::named("B")).unwrap(); // B yet unknown: allowed
        assert!(env.declare("B", Type::named("A")).is_err());
    }

    #[test]
    fn head_normal_unfolds_chains() {
        let mut env = TypeEnv::new();
        env.declare("A", Type::Int).unwrap();
        env.declare("B", Type::named("A")).unwrap();
        assert_eq!(env.head_normal(&Type::named("B")).unwrap(), &Type::Int);
    }

    #[test]
    fn declared_subtype_checked_structurally() {
        let mut env = TypeEnv::with_policy(SubtypePolicy::Declared);
        env.declare("Person", Type::record([("Name", Type::Str)]))
            .unwrap();
        env.declare(
            "Employee",
            Type::record([("Name", Type::Str), ("Empno", Type::Int)]),
        )
        .unwrap();
        env.declare("Rock", Type::record([("Mass", Type::Float)]))
            .unwrap();
        env.declare_subtype("Employee", "Person").unwrap();
        assert!(env.declared_le("Employee", "Person"));
        assert!(!env.declared_le("Person", "Employee"));
        // A structurally bogus include is rejected.
        assert!(matches!(
            env.declare_subtype("Rock", "Person"),
            Err(TypeError::IncompatibleDeclaration { .. })
        ));
    }

    #[test]
    fn declared_le_is_transitive_and_reflexive() {
        let mut env = TypeEnv::new();
        env.declare(
            "A",
            Type::record([("x", Type::Int), ("y", Type::Int), ("z", Type::Int)]),
        )
        .unwrap();
        env.declare("B", Type::record([("x", Type::Int), ("y", Type::Int)]))
            .unwrap();
        env.declare("C", Type::record([("x", Type::Int)])).unwrap();
        env.declare_subtype("A", "B").unwrap();
        env.declare_subtype("B", "C").unwrap();
        assert!(env.declared_le("A", "C"));
        assert!(env.declared_le("A", "A"));
        assert!(!env.declared_le("C", "A"));
    }

    #[test]
    fn mutation_bumps_generation_and_replaces_cache() {
        use crate::subtype::is_subtype;
        let mut env = TypeEnv::new();
        env.declare("Person", Type::record([("Name", Type::Str)]))
            .unwrap();
        let g = env.generation();
        assert!(is_subtype(&Type::named("Person"), &Type::Top, &env));
        assert_eq!(env.subtype_cache().len(), 1);
        // Declaring a new type invalidates: fresh cache, higher generation.
        env.declare(
            "Employee",
            Type::record([("Name", Type::Str), ("Empno", Type::Int)]),
        )
        .unwrap();
        assert!(env.generation() > g);
        assert_eq!(env.subtype_cache().len(), 0);
    }

    #[test]
    fn cached_verdicts_track_policy_switches() {
        use crate::subtype::is_subtype;
        let mut env = TypeEnv::new();
        env.declare("Person", Type::record([("Name", Type::Str)]))
            .unwrap();
        env.declare(
            "Impostor",
            Type::record([("Name", Type::Str), ("X", Type::Int)]),
        )
        .unwrap();
        // Structural policy: related (and the verdict is cached).
        assert!(is_subtype(
            &Type::named("Impostor"),
            &Type::named("Person"),
            &env
        ));
        assert!(is_subtype(
            &Type::named("Impostor"),
            &Type::named("Person"),
            &env
        ));
        assert!(env.subtype_cache().hits() >= 1);
        // Switching to Declared must not serve the stale structural `true`.
        env.set_policy(SubtypePolicy::Declared);
        assert!(!is_subtype(
            &Type::named("Impostor"),
            &Type::named("Person"),
            &env
        ));
    }

    #[test]
    fn clones_share_verdicts_until_either_side_mutates() {
        use crate::subtype::is_subtype;
        let mut a = TypeEnv::new();
        a.declare("Person", Type::record([("Name", Type::Str)]))
            .unwrap();
        let b = a.clone();
        assert!(is_subtype(&Type::named("Person"), &Type::Top, &b));
        // The clone's verdict is visible through the original (shared Arc).
        assert_eq!(a.subtype_cache().len(), 1);
        // Mutating `a` detaches it; `b` keeps the populated table.
        a.declare("Other", Type::Int).unwrap();
        assert_eq!(a.subtype_cache().len(), 0);
        assert_eq!(b.subtype_cache().len(), 1);
    }

    #[test]
    fn declared_cycles_rejected() {
        let mut env = TypeEnv::new();
        env.declare("A", Type::record([("x", Type::Int)])).unwrap();
        env.declare("B", Type::record([("x", Type::Int)])).unwrap();
        env.declare_subtype("A", "B").unwrap();
        assert_eq!(
            env.declare_subtype("B", "A"),
            Err(TypeError::CyclicDeclaration("B".into()))
        );
        // Edge rolled back: only the A -> B edge remains.
        assert!(env.declared_le("A", "B"));
        assert!(!env.declared_le("B", "A"));
    }

    #[test]
    fn refused_cycle_keeps_the_earlier_edges() {
        // `A` already has the supertype `Y`, which sorts after the refused
        // `C`: refusing `A <= C` must leave `A <= Y`, and only it.
        let mut env = TypeEnv::new();
        for n in ["A", "C", "Y"] {
            env.declare(n, Type::record([("Name", Type::Str)])).unwrap();
        }
        env.declare_subtype("A", "Y").unwrap();
        env.declare_subtype("C", "A").unwrap();
        assert_eq!(
            env.declare_subtype("A", "C"),
            Err(TypeError::CyclicDeclaration("A".into()))
        );
        assert!(
            env.declared_le("A", "Y"),
            "the earlier edge A <= Y survives"
        );
        assert!(!env.declared_le("A", "C"), "the refused edge is gone");
        assert_eq!(env.declared_supertypes("A").collect::<Vec<_>>(), ["Y"]);
    }

    #[test]
    fn repeated_edge_keeps_generation_and_cache() {
        let mut env = TypeEnv::new();
        env.declare("P", Type::record([("Name", Type::Str)]))
            .unwrap();
        env.declare("E", Type::record([("Name", Type::Str), ("No", Type::Int)]))
            .unwrap();
        env.declare_subtype("E", "P").unwrap();
        assert!(crate::subtype::is_subtype(
            &Type::named("E"),
            &Type::named("P"),
            &env
        ));
        let (generation, cached) = (env.generation(), env.subtype_cache().len());
        assert!(cached > 0);
        env.declare_subtype("E", "P").unwrap();
        assert_eq!(env.generation(), generation);
        assert_eq!(env.subtype_cache().len(), cached);
    }
}
