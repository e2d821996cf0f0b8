// Package core is a panicpath fixture: Load, (*Engine).Infer and
// (*Engine).InferBatchCtx match the default entry-point roots, so panics
// in their call graphs are flagged — except behind recover barriers,
// behind allow directives, or in unreachable functions.
package core

import "fmt"

// Engine mirrors the real engine type so the default roots resolve.
type Engine struct{ name string }

type validator interface {
	validate(n int) error
}

type strict struct{}

func (strict) validate(n int) error {
	if n < 0 {
		panic("negative length") // want:panicpath
	}
	return nil
}

// Load is a default panicpath root.
func Load(data []byte) (*Engine, error) {
	if err := parse(data); err != nil {
		return nil, err
	}
	return &Engine{name: "ok"}, nil
}

// parse panics directly and dispatches through an interface whose
// module implementation panics too.
func parse(data []byte) error {
	if len(data) == 0 {
		panic("empty plan") // want:panicpath
	}
	var v validator = strict{}
	return v.validate(len(data))
}

// Infer is a default panicpath root.
func (e *Engine) Infer(x float64) (float64, error) {
	y, err := safeEval(x)
	if err != nil {
		return 0, err
	}
	return y + guarded(x), nil
}

// safeEval installs a recover barrier, so panics below it are converted
// to errors at runtime and not reported.
func safeEval(x float64) (y float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("eval: %v", r)
		}
	}()
	return riskyEval(x), nil
}

func riskyEval(x float64) float64 {
	if x < 0 {
		panic("negative input") // no finding: behind safeEval's recover barrier
	}
	return x * 2
}

// guarded panics only on a caller-contract violation; the directive
// suppresses the finding.
func guarded(x float64) float64 {
	if x > 1e308 {
		panic("overflow") //rt:allow panicpath -- fixture proves suppression on a reachable panic
	}
	return x
}

// InferBatchCtx is also a root; it reaches no panic.
func (e *Engine) InferBatchCtx(x float64) (float64, error) { return x, nil }

// unreachablePanic is not called from any root: no finding.
func unreachablePanic() {
	panic("never called")
}
