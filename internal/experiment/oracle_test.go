package experiment

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/fl"
)

// attackNames reads the attack names out of NewAttack's own switch,
// so an attack added there is under the guard below without anyone having
// to remember a second list.
func attackNames(t *testing.T) []string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "experiment.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "NewAttack" {
			continue
		}
		ast.Inspect(fn, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						name, _ := strconv.Unquote(lit.Value)
						names = append(names, name)
					}
				}
			}
			return true
		})
	}
	sort.Strings(names)
	return names
}

// TestOracleDeclarationMatchesBehaviour is Table I's "knowledge of benign
// updates" column, checked: an attack's output depends on
// AttackContext.BenignUpdates exactly when it implements fl.OracleAttack.
// The engine hands the field to declarers only, so an attack that read it
// undeclared would silently craft its no-benign-updates fallback for ever;
// one that declared it needlessly would give up crafting beside Collect.
func TestOracleDeclarationMatchesBehaviour(t *testing.T) {
	names := attackNames(t)
	if len(names) < 14 {
		t.Fatalf("found only %d attack names in NewAttack: %v", len(names), names)
	}
	var oracles []string
	for _, name := range names {
		if name == "none" {
			continue
		}
		cfg := tinyCfg(name, "mkrum")
		if err := cfg.Normalize(); err != nil {
			t.Fatal(err)
		}
		tk, err := NewRecipe(cfg)
		if err != nil {
			t.Fatal(err)
		}
		global := tk.newModel(rand.New(rand.NewSource(1))).WeightVector()
		prev := tk.newModel(rand.New(rand.NewSource(2))).WeightVector()
		noise := rand.New(rand.NewSource(3))
		benign := make([][]float64, 8)
		for i := range benign {
			benign[i] = make([]float64, len(global))
			for j, g := range global {
				benign[i][j] = g + 0.1*noise.NormFloat64()
			}
		}
		// A fresh attack and an equally seeded stream per craft, so the
		// benign updates are the only thing that differs.
		craft := func(benign [][]float64) [][]float64 {
			atk, err := tk.attack()
			if err != nil {
				t.Fatal(err)
			}
			out, err := atk.Craft(&fl.AttackContext{
				Global: global, PrevGlobal: prev, BenignUpdates: benign,
				NumAttackers: 2, NumSelected: 10, TotalClients: 10, TotalAttackers: 2,
				NewModel: tk.newModel, Rng: rand.New(rand.NewSource(4)),
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return out
		}
		reads := !reflect.DeepEqual(craft(nil), craft(benign))
		_, declares := tk.atk.(fl.OracleAttack)
		if reads != declares {
			t.Errorf("%s: output depends on BenignUpdates = %v, implements fl.OracleAttack = %v", name, reads, declares)
		}
		if declares {
			oracles = append(oracles, name)
		}
	}
	if want := []string{"fang", "lie", "minmax", "minsum", "signflip"}; !reflect.DeepEqual(oracles, want) {
		t.Errorf("oracle attacks %v, want %v", oracles, want)
	}
}
