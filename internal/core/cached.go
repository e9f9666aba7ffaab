package core

import (
	"context"

	"tsperr/internal/cell"
	"tsperr/internal/errormodel"
	"tsperr/internal/modelcache"
)

// NewFrameworkCachedContext is NewFrameworkContext backed by the persistent
// model cache in dir. On a warm start (a valid snapshot exists for these
// options and the current cell library) the expensive once-per-design work —
// SSTA calibration of every unit and datapath training — is skipped: the
// machine rebuilds from the cached delay scales and the trained tables
// restore directly once they pass DatapathModel.Validate. On a miss the
// framework builds normally under ctx and its results are published to the
// cache for the next run; a failed cache write is deliberately non-fatal
// (the framework is still correct, the next run just stays cold).
//
// The returned warm flag reports whether the cache was hit.
func NewFrameworkCachedContext(ctx context.Context, opts errormodel.Options, dir string) (fw *Framework, warm bool, err error) {
	key := modelcache.Key(opts, cell.Fingerprint())
	if snap, ok := modelcache.Load(dir, key); ok {
		m, merr := errormodel.NewMachineWithScalesContext(ctx, opts, snap.Scales)
		if merr == nil {
			merr = snap.Datapath.Validate(m.Model.NumPCs())
		}
		if merr == nil {
			return newFramework(m, snap.Datapath), true, nil
		}
		// A snapshot whose scales cannot rebuild a machine (a corrupt file,
		// or a unit renamed without a schema bump) or whose datapath model
		// does not validate is a miss: the full rebuild below overwrites it.
	}
	fw, err = NewFrameworkContext(ctx, opts)
	if err != nil {
		return nil, false, err
	}
	_ = modelcache.Save(dir, key, &modelcache.Snapshot{
		Scales:   fw.Machine.Scales(),
		Datapath: fw.Datapath,
	})
	return fw, false, nil
}
