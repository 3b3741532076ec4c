package hom

import (
	"strconv"

	"repro/internal/dep"
	"repro/internal/rel"
)

// nullVarName encodes a labeled null as a variable name that cannot
// collide with user variable names (which never start with "\x00").
func nullVarName(id int) string { return "\x00n" + strconv.Itoa(id) }

// InstanceAtoms renders the facts of an instance as a conjunction of
// atoms in which constants become constant terms and labeled nulls
// become variables. A homomorphism from the resulting conjunction into
// an instance I is exactly a homomorphism K -> I that is the identity on
// constants, as used throughout the paper.
func InstanceAtoms(k *rel.Instance) []dep.Atom {
	facts := k.Facts()
	atoms := make([]dep.Atom, 0, len(facts))
	for _, f := range facts {
		atoms = append(atoms, factAtom(f))
	}
	return atoms
}

// FactAtom renders one fact as an atom: constants become constant
// terms, labeled nulls become variables.
func FactAtom(f rel.Fact) dep.Atom { return factAtom(f) }

// NullVar returns the variable name FactAtom uses for the labeled null
// with the given label; it cannot collide with user variable names.
func NullVar(id int) string { return nullVarName(id) }

func factAtom(f rel.Fact) dep.Atom {
	args := make([]dep.Term, len(f.Args))
	for i, v := range f.Args {
		if v.IsNull() {
			args[i] = dep.Var(nullVarName(v.NullID()))
		} else {
			args[i] = dep.Cst(v.ConstText())
		}
	}
	return dep.Atom{Rel: f.Rel, Args: args}
}

// InstanceHomExists reports whether there is a homomorphism from k to i
// that is the identity on constants (nulls of k may map to any value
// of i), checking block by block (see CheckBlocks).
func InstanceHomExists(k, i *rel.Instance, opts Options) bool {
	return CheckBlocks(Blocks(k), i, opts) < 0
}

// FindInstanceHom returns a homomorphism from k to i as a map from the
// nulls of k to values of i, if one exists. Nulls absent from the map
// were not constrained (they do not occur in k).
func FindInstanceHom(k, i *rel.Instance, opts Options) (map[rel.Value]rel.Value, bool) {
	out := make(map[rel.Value]rel.Value)
	for _, block := range Blocks(k) {
		b, ok := FindOne(blockAtoms(block), i, nil, opts)
		if !ok {
			return nil, false
		}
		for name, v := range b {
			if id, isNull := decodeNullVar(name); isNull {
				out[rel.Null(id)] = v
			}
		}
	}
	return out, true
}

func blockAtoms(block Block) []dep.Atom {
	atoms := make([]dep.Atom, 0, len(block.Facts))
	for _, f := range block.Facts {
		atoms = append(atoms, factAtom(f))
	}
	return atoms
}

func decodeNullVar(name string) (int, bool) {
	if len(name) < 3 || name[0] != '\x00' || name[1] != 'n' {
		return 0, false
	}
	id, err := strconv.Atoi(name[2:])
	if err != nil {
		return 0, false
	}
	return id, true
}
