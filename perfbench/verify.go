package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"eccparity/internal/resultcache"
	"eccparity/internal/sim/report"
	"eccparity/pkg/api"
)

// point is one normalized (experiment, params) configuration — the unit
// the daemon computes and caches.
type point struct {
	Experiment string
	Params     report.Params
}

func newPoint(exp string, p report.Params) (point, error) {
	n, err := p.NormalizedFor(exp)
	if err != nil {
		return point{}, err
	}
	return point{Experiment: exp, Params: n}, nil
}

// request is the submission that asks the daemon for this point.
func (p point) submit(priority, submitter string) api.SubmitRequest {
	return api.SubmitRequest{
		Experiment: p.Experiment, Cycles: p.Params.Cycles, Warmup: p.Params.Warmup,
		Trials: p.Params.Trials, Seed: p.Params.Seed, CSV: p.Params.CSV,
		Scheme: p.Params.Scheme, SchemeOptions: rawOptions(p.Params.SchemeOptions),
		Priority: priority, Submitter: submitter,
	}
}

func rawOptions(s string) json.RawMessage {
	if s == "" {
		return nil
	}
	return json.RawMessage(s)
}

// key is the point's content address, computed the way the daemon does.
func (p point) key() (string, error) {
	return resultcache.Key(struct {
		Experiment string        `json:"experiment"`
		Params     report.Params `json:"params"`
	}{p.Experiment, p.Params})
}

// render builds the result document the daemon serves for a report — the
// bytes a correct daemon must return for this point.
func render(key string, p point, rep report.Report) ([]byte, error) {
	var data json.RawMessage
	if rep.Data != nil {
		b, err := json.Marshal(rep.Data)
		if err != nil {
			return nil, err
		}
		data = b
	}
	doc := api.Result{
		Hash: key, Experiment: p.Experiment,
		Params: api.Params{
			Cycles: p.Params.Cycles, Warmup: p.Params.Warmup, Trials: p.Params.Trials,
			Seed: p.Params.Seed, CSV: p.Params.CSV,
			Scheme: p.Params.Scheme, SchemeOptions: p.Params.SchemeOptions,
		},
		Report: api.Report{Experiment: rep.Experiment, Title: rep.Title, Text: rep.Text, Data: data},
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// reference computes a point directly with report.Executor and renders the
// bytes the daemon must serve for it.
func reference(ctx context.Context, x *report.Executor, p point) (string, []byte, error) {
	key, err := p.key()
	if err != nil {
		return "", nil, err
	}
	rep, err := x.Run(ctx, p.Experiment, p.Params)
	if err != nil {
		return "", nil, fmt.Errorf("reference %s: %w", p.Experiment, err)
	}
	b, err := render(key, p, rep)
	return key, b, err
}

func shaHex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// fetcher reads result documents from the daemon and fingerprints them.
type fetcher struct {
	c  *api.Client
	tr *tracer
	// checked holds the keys that will be compared with a reference;
	// corrupt, when set, flips one byte of the next such result received
	// (the self-test's proof that a wrong result counts as a failure).
	checked map[string]bool
	corrupt atomic.Bool
}

// fetch GETs a result and returns its fingerprint. A result that does not
// carry its own address is wrong on its face.
func (f *fetcher) fetch(ctx context.Context, key string) outcome {
	tag, _ := ctx.Value(reqIDKey{}).(reqTag)
	sp := f.tr.start("api.result", tag.id, tag.parent)
	b, err := f.c.ResultBytes(withReq(ctx, tag.id, sp.id()), key)
	sp.end()
	if err != nil {
		return outcome{key: key}
	}
	defer f.tr.start("check.verify", tag.id, tag.parent).end() // the benchmark's own step
	if f.checked[key] && f.corrupt.CompareAndSwap(true, false) {
		b[len(b)/2] ^= 0x20
	}
	ok := bytes.Contains(b, []byte(`"hash": "`+key+`"`))
	return outcome{ok: ok, key: key, sha: shaHex(b)}
}

// ledger counts operations and checks every result against its reference
// fingerprint and against every other read of the same address.
type ledger struct {
	attempted, failed, mismatched int
	seen                          map[string]string // key → first fingerprint
}

func newLedger() *ledger { return &ledger{seen: map[string]string{}} }

// settle books a batch of ops against the references known so far.
func (l *ledger) settle(ops []op, refs map[string]string) {
	for _, o := range ops {
		l.attempted++
		if !o.done || !o.ok {
			l.failed++
			continue
		}
		if o.key == "" {
			continue
		}
		if want, ok := refs[o.key]; ok && want != o.sha {
			l.failed++
			l.mismatched++
			continue
		}
		if first, ok := l.seen[o.key]; ok && first != o.sha {
			l.failed++
			l.mismatched++
			continue
		}
		l.seen[o.key] = o.sha
	}
}
