// Command pdx is the peer data exchange command-line tool. It loads a
// setting and instances from text files and answers the paper's two
// algorithmic questions — existence of solutions and certain answers —
// plus classification and diagnostics.
//
// Usage:
//
//	pdx solve    -setting FILE -source FILE [-target FILE] [-witness] [-force-generic]
//	pdx certain  -setting FILE -source FILE [-target FILE] -queries FILE
//	pdx compile  -setting FILE -queries FILE [-verify -source FILE [-target FILE]]
//	pdx classify -setting FILE
//	pdx vet      -setting FILE [-json]
//	pdx chase    -setting FILE -source FILE [-target FILE]
//	pdx check    -setting FILE -source FILE [-target FILE] -candidate FILE
//	pdx repair   -setting FILE -source FILE [-target FILE] [-queries FILE]
//	pdx datalog  -program FILE -edb FILE [-idb-only]
//	pdx serve    [-addr HOST:PORT] [-max-inflight N] [-max-queue N] [-cluster-self URL -cluster-peers URLS] [SETTING.pde ...]
//	pdx cluster-status [-addr URL] [-setting-id ID -source-id ID [-target-id ID]] [-owner-only] [-json]
//
// File formats are documented in the repository README and on
// pde.ParseSetting / pde.ParseInstance / pde.ParseQueries.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/depparse"
	"repro/internal/rel"
	"repro/pde"
)

// stdout and exit are swapped by the tests.
var (
	stdout io.Writer = os.Stdout
	exit             = os.Exit
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "solve":
		err = cmdSolve(os.Args[2:])
	case "certain":
		err = cmdCertain(os.Args[2:])
	case "compile":
		err = cmdCompile(os.Args[2:])
	case "classify":
		err = cmdClassify(os.Args[2:])
	case "vet":
		err = cmdVet(os.Args[2:])
	case "chase":
		err = cmdChase(os.Args[2:])
	case "check":
		err = cmdCheck(os.Args[2:])
	case "repair":
		err = cmdRepair(os.Args[2:])
	case "datalog":
		err = cmdDatalog(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "cluster-status":
		err = cmdClusterStatus(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "pdx: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdx: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `pdx — peer data exchange (PODS 2005) tool

commands:
  solve     decide the existence-of-solutions problem SOL(P)
  certain   compute certain answers of target queries
  compile   compile certain-answer queries to chase-free evaluation plans
  classify  decide membership in the tractable class C_tract
  vet       run the static-analysis checks over a setting file
  chase     print the canonical instances J_can and I_can
  check     verify whether a candidate target instance is a solution
  repair    compute maximal repairable subsets of the target instance
  datalog   evaluate a positive Datalog program over an instance
  serve     run pdxd, the HTTP/JSON serving daemon
  cluster-status
            query a pdxd shard's ring view and locate cache-key owners
`)
}

type inputs struct {
	setting  string
	source   string
	target   string
	settingV *pde.Setting
	sourceV  *pde.Instance
	targetV  *pde.Instance
}

func (in *inputs) register(fs *flag.FlagSet) {
	fs.StringVar(&in.setting, "setting", "", "setting file (required)")
	fs.StringVar(&in.source, "source", "", "source instance file (required)")
	fs.StringVar(&in.target, "target", "", "target instance file (optional; empty instance if omitted)")
}

func (in *inputs) load(needSource bool) error {
	if in.setting == "" {
		return fmt.Errorf("-setting is required")
	}
	src, err := os.ReadFile(in.setting)
	if err != nil {
		return err
	}
	in.settingV, err = pde.ParseSetting(string(src))
	if err != nil {
		return fmt.Errorf("parsing %s: %w", in.setting, err)
	}
	in.sourceV = pde.NewInstance()
	if in.source != "" {
		text, err := os.ReadFile(in.source)
		if err != nil {
			return err
		}
		in.sourceV, err = pde.ParseInstance(string(text))
		if err != nil {
			return fmt.Errorf("parsing %s: %w", in.source, err)
		}
	} else if needSource {
		return fmt.Errorf("-source is required")
	}
	in.targetV = pde.NewInstance()
	if in.target != "" {
		text, err := os.ReadFile(in.target)
		if err != nil {
			return err
		}
		in.targetV, err = pde.ParseInstance(string(text))
		if err != nil {
			return fmt.Errorf("parsing %s: %w", in.target, err)
		}
	}
	return nil
}

func cmdSolve(args []string) error {
	fs := flag.NewFlagSet("solve", flag.ExitOnError)
	var in inputs
	in.register(fs)
	witness := fs.Bool("witness", false, "print a witness solution when one exists")
	forceGeneric := fs.Bool("force-generic", false, "always use the complete backtracking solver")
	maxNodes := fs.Int64("max-nodes", 0, "search node budget for the generic solver (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := in.load(true); err != nil {
		return err
	}
	opts := pde.Options{ForceGeneric: *forceGeneric, MaxNodes: *maxNodes}
	var res pde.Result
	var err error
	if *witness {
		res, err = pde.FindSolution(in.settingV, in.sourceV, in.targetV, opts)
	} else {
		res, err = pde.ExistsSolution(in.settingV, in.sourceV, in.targetV, opts)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "solution exists: %v (strategy: %s)\n", res.Exists, res.Strategy)
	if *witness && res.Solution != nil {
		fmt.Fprintln(stdout, "witness solution:")
		fmt.Fprintln(stdout, pde.FormatInstance(res.Solution))
	}
	if !res.Exists {
		exit(3) // distinguishable exit code for scripting
	}
	return nil
}

func cmdCertain(args []string) error {
	fs := flag.NewFlagSet("certain", flag.ExitOnError)
	var in inputs
	in.register(fs)
	queries := fs.String("queries", "", "query file (required)")
	maxNodes := fs.Int64("max-nodes", 0, "search node budget (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := in.load(true); err != nil {
		return err
	}
	if *queries == "" {
		return fmt.Errorf("-queries is required")
	}
	text, err := os.ReadFile(*queries)
	if err != nil {
		return err
	}
	qs, err := pde.ParseQueries(string(text))
	if err != nil {
		return fmt.Errorf("parsing %s: %w", *queries, err)
	}
	opts := pde.Options{MaxNodes: *maxNodes}
	for _, q := range qs {
		if q[0].IsBoolean() {
			res, err := pde.CertainBool(in.settingV, in.sourceV, in.targetV, q, opts)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s: certain = %v (solutions exist: %v)\n", q[0].Name, res.Certain, res.SolutionExists)
			continue
		}
		res, err := pde.CertainAnswers(in.settingV, in.sourceV, in.targetV, q, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: %d certain answer(s) (solutions exist: %v)\n", q[0].Name, len(res.Answers), res.SolutionExists)
		for _, t := range res.Answers {
			fmt.Fprintf(stdout, "  %s\n", t)
		}
	}
	return nil
}

func cmdCompile(args []string) error {
	fs := flag.NewFlagSet("compile", flag.ExitOnError)
	var in inputs
	in.register(fs)
	queries := fs.String("queries", "", "query file (required)")
	verify := fs.Bool("verify", false, "evaluate each plan and cross-check against the chase-backed path (needs -source)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := in.load(*verify); err != nil {
		return err
	}
	if *queries == "" {
		return fmt.Errorf("-queries is required")
	}
	text, err := os.ReadFile(*queries)
	if err != nil {
		return err
	}
	qs, err := pde.ParseQueries(string(text))
	if err != nil {
		return fmt.Errorf("parsing %s: %w", *queries, err)
	}
	sp, err := pde.CompileSettingPlan(in.settingV)
	if err != nil {
		if reason := pde.CompiledFallbackReason(err); reason != "" {
			fmt.Fprintf(stdout, "setting %s: not compilable (%s)\n", in.settingV.Name, reason)
			exit(3) // same convention as solve: distinguishable for scripting
			return nil
		}
		return err
	}
	fmt.Fprintf(stdout, "setting %s: compilable\n", in.settingV.Name)
	for _, q := range qs {
		plan, err := sp.CompileQuery(q)
		if err != nil {
			if reason := pde.CompiledFallbackReason(err); reason != "" {
				fmt.Fprintf(stdout, "%s: not compilable (%s)\n", q[0].Name, reason)
				continue
			}
			return err
		}
		fmt.Fprintln(stdout, plan.String())
		if !*verify {
			continue
		}
		got, err := plan.Eval(in.sourceV, in.targetV, pde.CompiledEvalOptions{})
		if err != nil {
			return fmt.Errorf("%s: evaluating plan: %w", q[0].Name, err)
		}
		var want pde.CertainResult
		if q[0].IsBoolean() {
			want, err = pde.CertainBool(in.settingV, in.sourceV, in.targetV, q, pde.Options{})
		} else {
			want, err = pde.CertainAnswers(in.settingV, in.sourceV, in.targetV, q, pde.Options{})
		}
		if err != nil {
			return fmt.Errorf("%s: chase-backed check: %w", q[0].Name, err)
		}
		if got.SolutionExists != want.SolutionExists || got.Certain != want.Certain ||
			!reflect.DeepEqual(got.Answers, want.Answers) {
			return fmt.Errorf("%s: compiled result diverges from chase-backed path:\ncompiled: %+v\nchased:   %+v",
				q[0].Name, got, want)
		}
		fmt.Fprintf(stdout, "%s: verified against chase-backed path (%d answer(s))\n", q[0].Name, len(got.Answers))
	}
	return nil
}

func cmdClassify(args []string) error {
	fs := flag.NewFlagSet("classify", flag.ExitOnError)
	var in inputs
	in.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := in.load(false); err != nil {
		return err
	}
	rep := pde.Classify(in.settingV)
	fmt.Fprintln(stdout, rep.Summary())
	fmt.Fprintf(stdout, "condition 1: %v, condition 2.1: %v, condition 2.2: %v\n", rep.Cond1, rep.Cond21, rep.Cond22)
	if len(rep.MarkedPositions) > 0 {
		fmt.Fprint(stdout, "marked positions:")
		for _, p := range rep.MarkedPositions {
			fmt.Fprintf(stdout, " %s", p)
		}
		fmt.Fprintln(stdout)
	}
	for _, label := range rep.TSOrder {
		fmt.Fprintf(stdout, "marked variables of %s: %v\n", label, rep.MarkedVarsByTGD[label])
	}
	return nil
}

func cmdVet(args []string) error {
	fs := flag.NewFlagSet("vet", flag.ExitOnError)
	setting := fs.String("setting", "", "setting file (required)")
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *setting == "" {
		return fmt.Errorf("-setting is required")
	}
	src, err := os.ReadFile(*setting)
	if err != nil {
		return err
	}
	rep := pde.Vet(string(src), *setting)
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		for _, d := range rep.Diagnostics {
			fmt.Fprintln(stdout, d)
		}
		errs, warns, infos := rep.Counts()
		if errs+warns+infos == 0 {
			fmt.Fprintf(stdout, "%s: ok\n", *setting)
		} else {
			fmt.Fprintf(stdout, "%s: %d error(s), %d warning(s), %d info\n", *setting, errs, warns, infos)
		}
	}
	if rep.HasErrors() {
		exit(1)
	}
	return nil
}

func cmdChase(args []string) error {
	fs := flag.NewFlagSet("chase", flag.ExitOnError)
	var in inputs
	in.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := in.load(true); err != nil {
		return err
	}
	ok, trace, err := core.ExistsSolutionTractable(in.settingV, in.sourceV, in.targetV, core.TractableOptions{SkipCondition1Check: true})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "J_can (%d facts, %d chase steps):\n%s\n\n", trace.JCan.NumFacts(), trace.StepsST, pde.FormatInstance(trace.JCan))
	fmt.Fprintf(stdout, "I_can (%d facts, %d chase steps):\n%s\n\n", trace.ICan.NumFacts(), trace.StepsTS, pde.FormatInstance(trace.ICan))
	fmt.Fprintf(stdout, "blocks: %d, max nulls per block: %d\n", trace.Blocks, trace.MaxBlockNulls)
	fmt.Fprintf(stdout, "homomorphism from every block of I_can into I: %v\n", ok)
	return nil
}

func cmdRepair(args []string) error {
	fs := flag.NewFlagSet("repair", flag.ExitOnError)
	var in inputs
	in.register(fs)
	queries := fs.String("queries", "", "optional query file evaluated under the repair semantics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := in.load(true); err != nil {
		return err
	}
	res, err := pde.Repairs(in.settingV, in.sourceV, in.targetV)
	if err != nil {
		return err
	}
	if res.Intact {
		fmt.Fprintln(stdout, "target instance is intact: it is its own unique repair")
	} else {
		fmt.Fprintf(stdout, "repairs: %d\n", len(res.Repairs))
	}
	for idx, r := range res.Repairs {
		fmt.Fprintf(stdout, "repair %d (dropped %d fact(s)):\n%s\n", idx+1, r.Removed, pde.FormatInstance(r.Target))
	}
	if *queries == "" {
		return nil
	}
	text, err := os.ReadFile(*queries)
	if err != nil {
		return err
	}
	qs, err := pde.ParseQueries(string(text))
	if err != nil {
		return fmt.Errorf("parsing %s: %w", *queries, err)
	}
	for _, q := range qs {
		r, err := pde.CertainUnderRepairs(in.settingV, in.sourceV, in.targetV, q)
		if err != nil {
			return err
		}
		if q[0].IsBoolean() {
			fmt.Fprintf(stdout, "%s: certain under repairs = %v\n", q[0].Name, r.Certain)
			continue
		}
		fmt.Fprintf(stdout, "%s: %d certain answer(s) under repairs\n", q[0].Name, len(r.Answers))
		for _, t := range r.Answers {
			fmt.Fprintf(stdout, "  %s\n", t)
		}
	}
	return nil
}

func cmdDatalog(args []string) error {
	fs := flag.NewFlagSet("datalog", flag.ExitOnError)
	program := fs.String("program", "", "datalog program file (required)")
	edbPath := fs.String("edb", "", "extensional database file (required)")
	idbOnly := fs.Bool("idb-only", false, "print only the derived (IDB) facts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *program == "" || *edbPath == "" {
		return fmt.Errorf("-program and -edb are required")
	}
	ptext, err := os.ReadFile(*program)
	if err != nil {
		return err
	}
	prog, err := depparse.ParseDatalog(string(ptext))
	if err != nil {
		return fmt.Errorf("parsing %s: %w", *program, err)
	}
	etext, err := os.ReadFile(*edbPath)
	if err != nil {
		return err
	}
	edb, err := pde.ParseInstance(string(etext))
	if err != nil {
		return fmt.Errorf("parsing %s: %w", *edbPath, err)
	}
	res, err := prog.Eval(edb, datalog.Options{})
	if err != nil {
		return err
	}
	out := res
	if *idbOnly {
		idb := prog.IDB()
		schema := rel.NewSchema()
		for _, name := range res.RelationNames() {
			if idb[name] {
				schema.Add(name, res.Relation(name).Arity()) //nolint:errcheck // arities consistent by construction
			}
		}
		out = res.Restrict(schema)
	}
	fmt.Fprintf(stdout, "%d facts (%d derived):\n%s\n",
		res.NumFacts(), res.NumFacts()-edb.NumFacts(), pde.FormatInstance(out))
	return nil
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	var in inputs
	in.register(fs)
	candidate := fs.String("candidate", "", "candidate solution instance file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := in.load(true); err != nil {
		return err
	}
	if *candidate == "" {
		return fmt.Errorf("-candidate is required")
	}
	text, err := os.ReadFile(*candidate)
	if err != nil {
		return err
	}
	cand, err := pde.ParseInstance(string(text))
	if err != nil {
		return fmt.Errorf("parsing %s: %w", *candidate, err)
	}
	reasons := pde.ExplainNonSolution(in.settingV, in.sourceV, in.targetV, cand)
	if len(reasons) == 0 {
		fmt.Fprintln(stdout, "candidate IS a solution")
		return nil
	}
	fmt.Fprintln(stdout, "candidate is NOT a solution:")
	for _, r := range reasons {
		fmt.Fprintf(stdout, "  %s\n", r)
	}
	exit(3)
	return nil
}
