package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"time"

	"dcvalidate"
	"dcvalidate/internal/acl"
	"dcvalidate/internal/bgp"
	"dcvalidate/internal/bv"
	"dcvalidate/internal/contracts"
	"dcvalidate/internal/ipnet"
	"dcvalidate/internal/metadata"
	"dcvalidate/internal/obs"
	"dcvalidate/internal/rcdc"
	"dcvalidate/internal/secguru"
	"dcvalidate/internal/topology"
	"dcvalidate/internal/workload"
)

// policy_smt: the SecGuru half of the paper. Each round takes one seeded
// ~3000-rule legacy Edge ACL as IOS text — parse it, check the seven Edge
// contracts, and prove it equivalent to its zero-day-removed successor
// (one huge, solver-bound policy) — then a batch of tiny NSG documents,
// each a benign or a breaking customer edit, parsed and checked against
// the managed-database backup contracts (per-call encode overhead).
// Nothing of RCDC or the serving plane runs.

// aclRound is one round's generated input, produced during set-up.
type aclRound struct {
	legacy, cleaned []byte // IOS text: the legacy ACL and the same ACL without zero-day rules
	rules           int
	nsgs            []nsgDoc
}

// nsgDoc is one NSG JSON document and whether the edit it carries blocks
// the backup path.
type nsgDoc struct {
	json     []byte
	breaking bool
}

var managedInstance = secguru.ManagedInstance{
	InstanceSubnet: ipnet.MustParsePrefix("10.1.2.0/24"),
	InfraService:   ipnet.MustParsePrefix("40.90.0.0/16"),
	InfraPorts:     acl.PortRange{Lo: 1433, Hi: 1434},
}

func backupContracts() []dcvalidate.PolicyContract {
	return dcvalidate.BackupContracts(managedInstance)
}

// vnetNSG is the healthy customer policy the NSG edits start from: allow
// vnet-internal and managed-backup traffic, deny other inbound (§3.4).
func vnetNSG() *acl.Policy {
	mk := func(name string, prio int, a acl.Action, src, dst ipnet.Prefix) acl.Rule {
		r := acl.NewRule(a, acl.AnyProto, src, dst, acl.AnyPort, acl.AnyPort)
		r.Name, r.Priority = name, prio
		return r
	}
	vnet := ipnet.MustParsePrefix("10.1.0.0/16")
	return &acl.Policy{Name: "vnet-nsg", Semantics: acl.FirstApplicable, Rules: []acl.Rule{
		mk("allow-vnet", 100, acl.Permit, vnet, vnet),
		mk("allow-outbound", 200, acl.Permit, vnet, ipnet.Prefix{}),
		mk("allow-infra-inbound", 300, acl.Permit, managedInstance.InfraService, vnet),
		mk("deny-inbound", 4000, acl.Deny, ipnet.Prefix{}, ipnet.Prefix{}),
	}}
}

// genNSG renders one seeded customer edit: a breaking one inserts a
// high-priority deny across the backup path, a benign one adds a narrow
// application permit.
func genNSG(rng *rand.Rand) (nsgDoc, error) {
	p := vnetNSG()
	doc := nsgDoc{breaking: rng.Intn(2) == 0}
	if doc.breaking {
		blocked := []string{"40.0.0.0/8", "40.90.0.0/16", "0.0.0.0/0"}[rng.Intn(3)]
		r := acl.NewRule(acl.Deny, acl.AnyProto, ipnet.Prefix{}, ipnet.MustParsePrefix(blocked), acl.AnyPort, acl.AnyPort)
		r.Name, r.Priority = "lockdown", 50
		p.Rules = append(p.Rules, r)
	} else {
		r := acl.NewRule(acl.Permit, acl.Proto(acl.ProtoTCP), ipnet.PrefixFrom(ipnet.Addr(rng.Uint32()), 24),
			ipnet.MustParsePrefix("10.1.0.0/16"), acl.AnyPort, acl.Port(443))
		r.Name, r.Priority = "app-allow", 150+rng.Intn(40)
		p.Rules = append(p.Rules, r)
	}
	var buf bytes.Buffer
	if err := acl.WriteNSG(&buf, p); err != nil {
		return doc, err
	}
	doc.json = buf.Bytes()
	return doc, nil
}

// genRound generates round i's inputs from the seed.
func genRound(seed int64, i, nsgBatch int) (*aclRound, error) {
	rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
	// The default ~3000-rule shape with seeded content: the rule count is
	// what the solver's work scales with, so it stays fixed across seeds.
	params := workload.DefaultEdgeACLParams()
	params.Seed = rng.Int63()
	legacy := workload.GenerateLegacyEdgeACL(params)
	cleaned := workload.BuildRefactorPlan(legacy)[0].Change.NewACL
	r := &aclRound{rules: len(legacy.Rules)}
	var buf bytes.Buffer
	if err := acl.WriteIOS(&buf, legacy); err != nil {
		return nil, err
	}
	r.legacy = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := acl.WriteIOS(&buf, cleaned); err != nil {
		return nil, err
	}
	r.cleaned = append([]byte(nil), buf.Bytes()...)
	for j := 0; j < nsgBatch; j++ {
		doc, err := genNSG(rng)
		if err != nil {
			return nil, err
		}
		r.nsgs = append(r.nsgs, doc)
	}
	return r, nil
}

// aclVerdict is what the big-ACL operation returns for the oracle.
type aclVerdict struct {
	policy     *dcvalidate.Policy
	report     *dcvalidate.PolicyReport
	equivalent bool
	witness    dcvalidate.Packet
}

// checkACL is the change → verdict operation of this workload: the ACL
// arrives as text, is parsed, checked against the Edge contracts, and
// proven equivalent to its successor.
func checkACL(in *aclRound, contracts []dcvalidate.PolicyContract) (*aclVerdict, error) {
	legacy, err := dcvalidate.ParseIOSACL("edge-legacy", bytes.NewReader(in.legacy))
	if err != nil {
		return nil, err
	}
	rep, err := dcvalidate.CheckPolicy(legacy, contracts)
	if err != nil {
		return nil, err
	}
	cleaned, err := dcvalidate.ParseIOSACL("edge-cleaned", bytes.NewReader(in.cleaned))
	if err != nil {
		return nil, err
	}
	eq, witness, err := dcvalidate.PoliciesEquivalent(legacy, cleaned)
	if err != nil {
		return nil, err
	}
	return &aclVerdict{legacy, rep, eq, witness}, nil
}

// checkNSG is the repeat operation: one tiny document, parsed and checked.
func checkNSG(doc nsgDoc, contracts []dcvalidate.PolicyContract) (*dcvalidate.Policy, *dcvalidate.PolicyReport, error) {
	p, err := dcvalidate.ParseNSG("vnet-nsg", bytes.NewReader(doc.json))
	if err != nil {
		return nil, nil, err
	}
	rep, err := dcvalidate.CheckPolicy(p, contracts)
	return p, rep, err
}

// verifyOutcomes is the policy oracle: whether the report's overall
// verdict is the expected one, and that every counterexample packet,
// re-evaluated by the concrete acl.Policy interpreter, really lies in the
// contract's filter and really gets the verdict the contract forbids.
func verifyOutcomes(res *result, what string, p *acl.Policy, rep *secguru.Report, wantOK bool) {
	res.expect(rep.OK() == wantOK, "%s: contracts hold = %v, want %v", what, rep.OK(), wantOK)
	for _, o := range rep.Failed() {
		permitted, _ := p.Evaluate(o.Witness)
		res.expect(o.Contract.Filter.Matches(o.Witness), "%s: contract %s: witness %+v lies outside the contract's filter", what, o.Contract.Name, o.Witness)
		res.expect(permitted != (o.Contract.Expected == acl.Permit), "%s: contract %s: the interpreter gives witness %+v the expected verdict", what, o.Contract.Name, o.Witness)
	}
}

func runPolicySMT(e *env) (*result, error) {
	res := newResult("policy_smt")
	edge := workload.EdgeContracts()
	backup := backupContracts()

	var setup, check, nsg samples
	var rate samples // NSG checks per second, one sample per round's batch
	rules := 0
	type nsgResult struct {
		doc nsgDoc
		p   *acl.Policy
		rep *secguru.Report
	}
	var acls []*aclVerdict
	var nsgs []nsgResult
	round := 0
	for b := newBudget(e.measureFor(), e.sizes.acls, 2); b.more(); round++ {
		start := time.Now()
		in, err := genRound(e.opts.seed, round, e.sizes.nsgBatch)
		if err != nil {
			return nil, err
		}
		setup.addSeconds(time.Since(start))
		rules += in.rules

		start = time.Now()
		v, err := checkACL(in, edge)
		took := time.Since(start)
		if res.op(err) {
			check.addMs(took)
			acls = append(acls, v)
		}

		batch, batchWall := 0, time.Duration(0)
		for _, doc := range in.nsgs {
			start = time.Now()
			p, rep, err := checkNSG(doc, backup)
			took = time.Since(start)
			if res.op(err) {
				nsg.add(us(took))
				batch++
				batchWall += took
				nsgs = append(nsgs, nsgResult{doc, p, rep})
			}
		}
		rate.add(perSecond(batch, batchWall))
	}

	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.row("setup_s", setup)
	res.set("peak_rss_mb", rss)
	res.row("change_to_verdict_p50_ms", check)
	res.row("repeat_verdict_p50_us", nsg)
	res.row("repeat_verdicts_per_s", rate)
	res.counts["acls"] = int64(len(check))
	res.counts["acl_rules"] = int64(rules)
	res.counts["nsg_docs"] = int64(len(nsg))

	for i, v := range acls {
		what := fmt.Sprintf("ACL %d", i)
		verifyOutcomes(res, what, v.policy, v.report, true)
		res.expect(len(v.report.Outcomes) == len(edge), "%s: %d outcomes for %d contracts", what, len(v.report.Outcomes), len(edge))
		res.expect(v.equivalent, "%s: not equivalent to its zero-day-removed successor (witness %+v)", what, v.witness)
	}
	breaking := 0
	for i, n := range nsgs {
		verifyOutcomes(res, fmt.Sprintf("NSG %d (breaking=%v)", i, n.doc.breaking), n.p, n.rep, !n.doc.breaking)
		if n.doc.breaking {
			breaking++
		}
	}
	res.counts["nsg_breaking"] = int64(breaking)
	return res, nil
}

// tracePolicySMT splits the big-ACL operation into its stages — parse,
// the first contract (which pays for encoding and bit-blasting the
// policy), each further contract (an incremental assumption solve), and
// the equivalence proof — and runs the RCDC bit-vector checker on one ToR
// of the sweep fleet, reading the shared bv/sat core's counters from the
// public obs registry, because a solver change moves both.
func tracePolicySMT(e *env) (*result, error) {
	res := newResult("policy_smt")
	edge := workload.EdgeContracts()
	acc := layerRows{}
	tr := newTracer()
	round := 0
	for b := newBudget(e.measureFor()/2, max(1, e.sizes.acls/8), 1); b.more(); round++ {
		in, err := genRound(e.opts.seed, round, 0)
		if err != nil {
			return nil, err
		}
		root := tr.begin("acl", -1)
		sp := tr.begin("acl.parse", root)
		legacy, err := acl.ParseIOS("edge-legacy", bytes.NewReader(in.legacy))
		parse := tr.end(sp)
		if !res.op(err) {
			continue
		}
		cleaned, err := acl.ParseIOS("edge-cleaned", bytes.NewReader(in.cleaned))
		if !res.op(err) {
			continue
		}
		// One unrecorded check first: whichever check runs first on a new
		// policy also pays for growing the heap to the encoding's size,
		// which would be charged to the first contract.
		if _, err := secguru.Check(legacy, edge[:1]); !res.op(err) {
			continue
		}
		sp = tr.begin("secguru.check1", root)
		_, err = secguru.Check(legacy, edge[:1])
		first := tr.end(sp)
		if !res.op(err) {
			continue
		}
		sp = tr.begin("secguru.check7", root)
		rep, err := secguru.Check(legacy, edge)
		all := tr.end(sp)
		if !res.op(err) {
			continue
		}
		sp = tr.begin("secguru.equiv", root)
		eq, witness, err := secguru.Equivalent(legacy, cleaned)
		equiv := tr.end(sp)
		tr.end(root)
		if !res.op(err) {
			continue
		}
		verifyOutcomes(res, fmt.Sprintf("ACL %d", round), legacy, rep, true)
		res.expect(eq, "ACL %d: not equivalent to its zero-day-removed successor (witness %+v)", round, witness)
		acc.add("acl.parse_ms", ms(parse))
		acc.add("acl.rules", float64(len(legacy.Rules)))
		acc.add("secguru.equiv_ms", ms(equiv))
		acc.add("secguru.first_contract_ms", ms(first))
		acc.add("secguru.extra_contract_ms", ms(all-first)/float64(len(edge)-1))
	}
	acc.into(res)
	res.set("trace.overhead_share", tr.overheadShare())

	// One ToR through the RCDC SMT checker.
	topo, err := topology.New(sizedParams(e.sizes.fleetDevices))
	if err != nil {
		return nil, err
	}
	facts := metadata.FromTopology(topo)
	tor := topo.ToRs()[0]
	tbl, err := bgp.NewSynth(topo, nil).Table(tor)
	if err != nil {
		return nil, err
	}
	dc := contracts.NewGenerator(facts).ForDevice(tor)
	reg := obs.NewRegistry()
	start := time.Now()
	viols, err := rcdc.SMTChecker{Workers: 1, Metrics: bv.NewMetrics(reg)}.CheckDevice(tbl, dc, topology.RoleToR)
	took := time.Since(start)
	if res.op(err) {
		res.expect(len(viols) == 0, "SMT checker finds %d violations on a healthy ToR", len(viols))
		res.set("rcdc.smt_device_ms", ms(took))
		res.set("sat.conflicts", registryValue(reg, "dcv_bv_conflicts_total"))
		res.set("sat.decisions", registryValue(reg, "dcv_bv_decisions_total"))
		res.set("sat.propagations", registryValue(reg, "dcv_bv_propagations_total"))
		res.set("bv.solve_ms", registryValue(reg, "dcv_bv_solve_seconds_sum")*1e3)
		res.counts["smt_contracts"] = int64(len(dc.Contracts))
	}
	return res, nil
}
