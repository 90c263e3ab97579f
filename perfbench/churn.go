package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"starlink/internal/bind"
	"starlink/internal/casestudy"
	"starlink/internal/network"
	"starlink/internal/protocol/xmlrpc"
	"starlink/internal/services/photostore"
	"starlink/internal/services/picasa"
	"starlink/starlink"
)

const (
	churnCacheEntries = 32   // fewer than the key pool, so fills evict
	churnZipfS        = 1.1  // Zipf exponent of the key draw
	churnSeq          = 8192 // flow key draws, cycled
	churnMaxPerPage   = 20
)

// churnQueries name one theme each of the generated corpus, so every
// (query, per_page) key has a distinct result list: a reply served for
// the wrong key, or a stale one, cannot pass verification.
var churnQueries = []string{"tree", "city", "cat", "mountain", "harbour"}

// churnKey is one (query, per_page) search and its expected photos.
type churnKey struct {
	req    []byte // XML-RPC search to the mediator
	native []byte // the same search as a Picasa REST request
	photos []photostore.Photo
	memo   atomic.Pointer[[]byte] // a verified reply; see flickrInput.memo
}

type churnFixture struct {
	svc  *picasa.Service
	keys []churnKey
	seq  []int // key index of each flow
}

func newChurn(seed int64) (fixture, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0xc4c4e))
	store := photostore.Generate(corpusSize)
	// Keys are laid out by Zipf rank: rank r asks for 1 + r%20 photos,
	// and the seed decides which query each rank pairs with. Every seed
	// thus has its own hot keys but the same cost per rank, so the
	// workload's cost does not depend on the seed.
	f := &churnFixture{keys: make([]churnKey, len(churnQueries)*churnMaxPerPage)}
	for per := 1; per <= churnMaxPerPage; per++ {
		for j, qi := range rng.Perm(len(churnQueries)) {
			q := churnQueries[qi]
			req, err := xmlrpcRequest(flickrPath, casestudy.FlickrSearch,
				map[string]xmlrpc.Value{"text": q, "per_page": int64(per)})
			if err != nil {
				return nil, err
			}
			photos := store.Search(q, per)
			if len(photos) != per {
				return nil, fmt.Errorf("query %q returns %d photos, want %d", q, len(photos), per)
			}
			f.keys[per-1+j*churnMaxPerPage] = churnKey{req: req, native: restGet(searchTarget(q, per)), photos: photos}
		}
	}
	zipf := rand.NewZipf(rng, churnZipfS, 1, uint64(len(f.keys)-1))
	f.seq = make([]int, churnSeq)
	for i := range f.seq {
		f.seq[i] = int(zipf.Uint64())
	}
	svc, err := picasa.New(store)
	if err != nil {
		return nil, err
	}
	f.svc = svc
	return f, nil
}

func (f *churnFixture) deploy(tr *tracer) (*deployment, error) {
	t0 := time.Now()
	routes, err := bind.ParseRoutes(casestudy.PicasaRoutesDoc)
	if err != nil {
		return nil, err
	}
	rb, err := bind.NewRESTBinder(routes)
	if err != nil {
		return nil, err
	}
	return startMediator(starlink.EngineConfig{
		Merged: casestudy.SearchMediator(),
		Sides: map[int]*starlink.EngineSide{
			1: {Binder: &bind.XMLRPCBinder{Path: flickrPath, Defs: casestudy.FlickrUsage().Messages}},
			2: {Binder: rb, Target: f.svc.Addr()},
		},
		HostMap: map[string]string{casestudy.PicasaHost: f.svc.Addr()},
		Cache: &starlink.CachePolicy{
			Rules:      map[string]starlink.CacheRule{casestudy.PicasaSearch: {TTL: time.Hour}},
			MaxEntries: churnCacheEntries,
			// One shard makes the cache a single LRU, so its hit ratio
			// follows the key frequencies alone, not how the seed's hot
			// keys happen to hash across shards.
			Shards: 1,
		},
	}, tr, t0)
}

func (f *churnFixture) requestsPerFlow() int { return 1 }

// client sessions open a fresh connection for every flow: dial, one
// search, close.
func (f *churnFixture) client(addr string) *session {
	return &session{w: &wire{addr: addr, framer: network.HTTPFramer{}}, run: func(w *wire, i int) error {
		defer w.drop()
		k := &f.keys[f.seq[i%len(f.seq)]]
		data, err := w.roundTrip(k.req)
		if err != nil {
			return err
		}
		if m := k.memo.Load(); m != nil && bytes.Equal(*m, data) {
			return nil
		}
		reply, err := xmlrpcStruct(data)
		if err != nil {
			return err
		}
		if err := checkPhotoList(reply, k.photos); err != nil {
			return err
		}
		verified := append([]byte(nil), data...)
		k.memo.Store(&verified)
		return nil
	}}
}

func (f *churnFixture) native() *session {
	return &session{w: &wire{addr: f.svc.Addr(), framer: network.HTTPFramer{}}, run: func(w *wire, i int) error {
		defer w.drop()
		data, err := w.roundTrip(f.keys[f.seq[i%len(f.seq)]].native)
		if err != nil {
			return err
		}
		return checkStatus(data)
	}}
}

func (f *churnFixture) audit() int64 { return 0 }

func (f *churnFixture) close() { f.svc.Close() }
