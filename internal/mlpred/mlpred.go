// Package mlpred implements the machine-learning timing-error predictors the
// paper's Related Work discusses: decision trees as used for compiler-guided
// clock scheduling (Fan et al., DAC 2018) and random forests as used by the
// CLIM functional-unit models (Jiao et al., IEEE TC 2018). They classify
// whether an instruction will experience a timing error from
// architecturally visible features (operation class, activated depth,
// switching). The paper's criticism — reproduced by the ablation benchmarks
// — is that such classifiers predict errors directly, without estimating
// DTS, so they cannot express the probabilistic behaviour that process
// variation induces near the critical operating point.
package mlpred

import (
	"fmt"
	"math"
	"sort"

	"tsperr/internal/numeric"
)

// Sample is one training observation.
type Sample struct {
	// Features are numeric feature values (the package is agnostic to their
	// meaning; the harness uses op class, depth, flush depth, toggle).
	Features []float64
	// Label is true when the instruction experienced a timing error.
	Label bool
}

// Tree is a CART-style binary decision tree.
type Tree struct {
	root *node
	// NumFeatures is the expected feature vector length.
	NumFeatures int
}

type node struct {
	leaf    bool
	prob    float64 // positive fraction at this node
	feature int
	thresh  float64
	lo, hi  *node
}

// Config controls training.
type Config struct {
	// MaxDepth bounds the tree depth; zero selects 4 (the DefaultConfig
	// value).
	MaxDepth int
	// MinLeaf is the minimum number of samples in a leaf. Zero selects the
	// permissive CART default of 1 — note this is deliberately NOT the
	// DefaultConfig value: DefaultConfig regularizes at 8, while a
	// zero-value Config grows the deepest tree the data supports. Callers
	// who want the regularized setting must start from DefaultConfig().
	// Negative values are rejected by Train and TrainRegTree.
	MinLeaf int
	// Features, when non-nil, restricts splits to this feature subset
	// (used by the random forest).
	Features []int
}

// DefaultConfig returns a small, well-regularized tree configuration.
func DefaultConfig() Config { return Config{MaxDepth: 4, MinLeaf: 8} }

// resolve validates the config against a feature-vector length and fills the
// documented defaults (MaxDepth 4, MinLeaf 1 — see the Config field docs for
// why the MinLeaf default differs from DefaultConfig's 8).
func (cfg Config) resolve(nf int) (Config, error) {
	if cfg.MinLeaf < 0 {
		return cfg, fmt.Errorf("mlpred: MinLeaf %d is negative (0 selects the default of 1)", cfg.MinLeaf)
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 4
	}
	if cfg.MinLeaf == 0 {
		cfg.MinLeaf = 1
	}
	if cfg.Features == nil {
		feats := make([]int, nf)
		for i := range feats {
			feats[i] = i
		}
		cfg.Features = feats
	}
	return cfg, nil
}

// checkSamples validates a non-empty, rectangular training set and returns
// the feature-vector length.
func checkSamples[S any](samples []S, features func(S) []float64) (int, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("mlpred: no training samples")
	}
	nf := len(features(samples[0]))
	for _, s := range samples {
		if len(features(s)) != nf {
			return 0, fmt.Errorf("mlpred: inconsistent feature lengths")
		}
	}
	return nf, nil
}

// Train fits a tree on the samples.
func Train(samples []Sample, cfg Config) (*Tree, error) {
	nf, err := checkSamples(samples, func(s Sample) []float64 { return s.Features })
	if err != nil {
		return nil, err
	}
	cfg, err = cfg.resolve(nf)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	t := &Tree{NumFeatures: nf}
	t.root = build(samples, idx, cfg.Features, cfg, 0)
	return t, nil
}

func posFraction(samples []Sample, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	pos := 0
	for _, i := range idx {
		if samples[i].Label {
			pos++
		}
	}
	return float64(pos) / float64(len(idx))
}

// gini returns the Gini impurity of a binary split characterized by positive
// count p over n samples.
func gini(p, n float64) float64 {
	if n == 0 {
		return 0
	}
	q := p / n
	return 2 * q * (1 - q)
}

func build(samples []Sample, idx []int, feats []int, cfg Config, depth int) *node {
	prob := posFraction(samples, idx)
	if depth >= cfg.MaxDepth || len(idx) < 2*cfg.MinLeaf || prob == 0 || prob == 1 {
		return &node{leaf: true, prob: prob}
	}
	bestGain := 0.0
	bestFeat := -1
	bestThresh := 0.0
	n := float64(len(idx))
	var totalPos float64
	for _, i := range idx {
		if samples[i].Label {
			totalPos++
		}
	}
	parent := gini(totalPos, n)
	order := make([]int, len(idx))
	for _, f := range feats {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool {
			return samples[order[a]].Features[f] < samples[order[b]].Features[f]
		})
		var leftPos, leftN float64
		for k := 0; k < len(order)-1; k++ {
			if samples[order[k]].Label {
				leftPos++
			}
			leftN++
			v, next := samples[order[k]].Features[f], samples[order[k+1]].Features[f]
			// Adjacent sorted duplicates are bit-identical; no split point
			// exists between equal keys.
			if v == next {
				continue // can't split between equal values
			}
			if int(leftN) < cfg.MinLeaf || len(order)-int(leftN) < cfg.MinLeaf {
				continue
			}
			rightPos := totalPos - leftPos
			rightN := n - leftN
			gain := parent - (leftN/n)*gini(leftPos, leftN) - (rightN/n)*gini(rightPos, rightN)
			if gain > bestGain+1e-12 {
				bestGain = gain
				bestFeat = f
				bestThresh = (v + next) / 2
			}
		}
	}
	if bestFeat < 0 {
		return &node{leaf: true, prob: prob}
	}
	var lo, hi []int
	for _, i := range idx {
		if samples[i].Features[bestFeat] <= bestThresh {
			lo = append(lo, i)
		} else {
			hi = append(hi, i)
		}
	}
	return &node{
		feature: bestFeat,
		thresh:  bestThresh,
		lo:      build(samples, lo, feats, cfg, depth+1),
		hi:      build(samples, hi, feats, cfg, depth+1),
		prob:    prob,
	}
}

// PredictProb returns the positive fraction of the leaf the features land in.
func (t *Tree) PredictProb(features []float64) float64 {
	n := t.root
	for !n.leaf {
		if features[n.feature] <= n.thresh {
			n = n.lo
		} else {
			n = n.hi
		}
	}
	return n.prob
}

// Predict classifies at the 0.5 threshold.
func (t *Tree) Predict(features []float64) bool { return t.PredictProb(features) >= 0.5 }

// Depth returns the tree depth (leaves at depth 0 for a stump).
func (t *Tree) Depth() int { return depthOf(t.root) }

func depthOf(n *node) int {
	if n.leaf {
		return 0
	}
	lo, hi := depthOf(n.lo), depthOf(n.hi)
	if hi > lo {
		lo = hi
	}
	return lo + 1
}

// Forest is a bagged ensemble of trees (the CLIM-style random forest).
type Forest struct {
	Trees []*Tree
}

// TrainForest fits nTrees trees on bootstrap resamples with random feature
// subsets of size sqrt(numFeatures).
func TrainForest(samples []Sample, nTrees int, cfg Config, seed uint64) (*Forest, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("mlpred: no training samples")
	}
	if nTrees <= 0 {
		nTrees = 10
	}
	nf := len(samples[0].Features)
	sub := int(math.Ceil(math.Sqrt(float64(nf))))
	rng := numeric.NewRNG(seed)
	f := &Forest{}
	for k := 0; k < nTrees; k++ {
		boot := make([]Sample, len(samples))
		for i := range boot {
			boot[i] = samples[rng.Intn(len(samples))]
		}
		perm := rng.Perm(nf)
		c := cfg
		c.Features = perm[:sub]
		t, err := Train(boot, c)
		if err != nil {
			return nil, err
		}
		f.Trees = append(f.Trees, t)
	}
	return f, nil
}

// PredictProb averages the ensemble's leaf probabilities.
func (f *Forest) PredictProb(features []float64) float64 {
	var k numeric.KahanSum
	for _, t := range f.Trees {
		k.Add(t.PredictProb(features))
	}
	return k.Value() / float64(len(f.Trees))
}

// Predict classifies at the 0.5 threshold.
func (f *Forest) Predict(features []float64) bool { return f.PredictProb(features) >= 0.5 }

// Accuracy returns the fraction of samples a predictor classifies correctly.
func Accuracy(pred func([]float64) bool, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	ok := 0
	for _, s := range samples {
		if pred(s.Features) == s.Label {
			ok++
		}
	}
	return float64(ok) / float64(len(samples))
}

// BrierScore returns the mean squared error of probabilistic predictions —
// the calibration metric on which the classifier baselines fall behind the
// analytic DTS-based model under process variation.
func BrierScore(prob func([]float64) float64, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	var k numeric.KahanSum
	for _, s := range samples {
		y := 0.0
		if s.Label {
			y = 1
		}
		d := prob(s.Features) - y
		k.Add(d * d)
	}
	return k.Value() / float64(len(samples))
}
