package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"starlink/internal/bind"
	"starlink/internal/casestudy"
	"starlink/internal/network"
	"starlink/internal/protocol/httpwire"
	"starlink/internal/protocol/rest"
	"starlink/internal/protocol/xmlrpc"
	"starlink/internal/services/photostore"
	"starlink/internal/services/picasa"
	"starlink/starlink"
)

// Corpus layout shared by the photo workloads. photostore.Generate
// cycles five themes, so each query below matches 100 photos and a
// search with per_page <= 20 only ever returns photos 1..100.
const (
	corpusSize     = 500 // the E8 corpus
	searchedPhotos = 100 // photos any search can return; seeded with comments
	nativeFirst    = 100 // native addComment writes go to photos 101..200
	writeFirst     = 200 // mediated addComment writes go to photos 201..500
	writeCount     = corpusSize - writeFirst
	flickrPath     = "/services/xmlrpc"
	flickrPlan     = 3 * 512 // flow inputs, cycled
	mediatedAuthor = "flickr-user"
)

var (
	flickrQueries = []string{
		"tree", "nature", "city", "road", "cat", "pet", "mountain", "outdoors",
		"sea", "harbour", "study", "scene", "portrait", "view", "light",
	}
	flickrPerPage = [3]int{1, 5, 20}
	commenters    = []string{"alice", "bob", "carol", "dave"}
)

func photoID(n int) string { return fmt.Sprintf("photo-%06d", n) }

// flickrInput is one flow of the E7 traversal: search -> getInfo ->
// getComments -> addComment, with the replies the photostore implies.
type flickrInput struct {
	req      [4][]byte // XML-RPC requests to the mediator
	native   [3][]byte // the same operations as Picasa REST requests
	photos   []photostore.Photo
	pick     photostore.Photo
	comments []photostore.Comment
	target   string // photo the comment is written to
	text     string
	// memo holds a verified reply to each read request. The reads are
	// deterministic, so a byte-identical later reply is verified too; any
	// other reply is decoded and checked in full.
	memo [3]atomic.Pointer[[]byte]
}

type flickrFixture struct {
	store *photostore.Store
	svc   *picasa.Service
	plan  []flickrInput

	mu    sync.Mutex
	added map[string]flickrWrite // comment id -> write, from mediated replies
}

type flickrWrite struct{ photo, text string }

func newFlickr(seed int64) (fixture, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0xf11c4))
	store := photostore.Generate(corpusSize)
	for n := 1; n <= searchedPhotos; n++ {
		for j := 0; j <= rng.IntN(3); j++ {
			text := fmt.Sprintf("remark %d", rng.IntN(10000))
			if _, err := store.AddComment(photoID(n), commenters[rng.IntN(len(commenters))], text); err != nil {
				return nil, err
			}
		}
	}
	f := &flickrFixture{store: store, plan: make([]flickrInput, flickrPlan), added: map[string]flickrWrite{}}
	for b := 0; b < flickrPlan; b += 3 {
		// Every block of three flows holds each per_page value once, so the
		// draw is in exact thirds.
		for k, o := range rng.Perm(3) {
			in := &f.plan[b+k]
			q := flickrQueries[rng.IntN(len(flickrQueries))]
			per := flickrPerPage[o]
			in.photos = store.Search(q, per)
			if len(in.photos) != per {
				return nil, fmt.Errorf("query %q returns %d photos, want %d", q, len(in.photos), per)
			}
			in.pick = in.photos[rng.IntN(per)]
			comments, err := store.Comments(in.pick.ID)
			if err != nil {
				return nil, err
			}
			in.comments = comments
			in.target = photoID(writeFirst + 1 + rng.IntN(writeCount))
			in.text = fmt.Sprintf("note %d", rng.Uint32())
			reqs := []struct {
				method string
				params map[string]xmlrpc.Value
			}{
				{casestudy.FlickrSearch, map[string]xmlrpc.Value{"text": q, "per_page": int64(per)}},
				{casestudy.FlickrGetInfo, map[string]xmlrpc.Value{"photo_id": in.pick.ID}},
				{casestudy.FlickrGetComments, map[string]xmlrpc.Value{"photo_id": in.pick.ID}},
				{casestudy.FlickrAddComment, map[string]xmlrpc.Value{"photo_id": in.target, "comment_text": in.text}},
			}
			for s, r := range reqs {
				if in.req[s], err = xmlrpcRequest(flickrPath, r.method, r.params); err != nil {
					return nil, err
				}
			}
			in.native[0] = restGet(searchTarget(q, per))
			in.native[1] = restGet(rest.PhotoPath(in.pick.ID) + "?kind=comment")
			nativeWrite := photoID(nativeFirst + 1 + rng.IntN(writeFirst-nativeFirst))
			if in.native[2], err = restAddComment(nativeWrite, in.text); err != nil {
				return nil, err
			}
		}
	}
	svc, err := picasa.New(store)
	if err != nil {
		return nil, err
	}
	f.svc = svc
	return f, nil
}

func (f *flickrFixture) deploy(tr *tracer) (*deployment, error) {
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
		Merged: casestudy.XMLRPCMediator(),
		Sides: map[int]*starlink.EngineSide{
			1: {Binder: &bind.XMLRPCBinder{Path: flickrPath, Defs: casestudy.FlickrUsage().Messages}},
			2: {Binder: rb, Target: f.svc.Addr()},
		},
		HostMap: map[string]string{casestudy.PicasaHost: f.svc.Addr()},
	}, tr, t0)
}

func (f *flickrFixture) requestsPerFlow() int { return 4 }

func (f *flickrFixture) client(addr string) *session {
	return &session{w: &wire{addr: addr, framer: network.HTTPFramer{}}, run: f.flow}
}

var flickrSteps = [4]string{"search", "getInfo", "getComments", "addComment"}

func (f *flickrFixture) flow(w *wire, i int) error {
	in := &f.plan[i%len(f.plan)]
	for step := 0; step < 3; step++ {
		data, err := w.roundTrip(in.req[step])
		if err != nil {
			return fmt.Errorf("%s: %w", flickrSteps[step], err)
		}
		if m := in.memo[step].Load(); m != nil && bytes.Equal(*m, data) {
			continue
		}
		if err := in.check(step, data); err != nil {
			return fmt.Errorf("%s: %w", flickrSteps[step], err)
		}
		verified := append([]byte(nil), data...)
		in.memo[step].Store(&verified)
	}
	data, err := w.roundTrip(in.req[3])
	if err != nil {
		return fmt.Errorf("addComment: %w", err)
	}
	reply, err := xmlrpcStruct(data)
	if err != nil {
		return fmt.Errorf("addComment: %w", err)
	}
	id := str(reply["comment_id"])
	if !strings.HasPrefix(id, "comment-") {
		return fmt.Errorf("addComment: %w: comment id %q", errWrongReply, id)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.added[id]; dup {
		return fmt.Errorf("addComment: %w: comment id %q returned twice", errWrongReply, id)
	}
	f.added[id] = flickrWrite{photo: in.target, text: in.text}
	return nil
}

// check decodes a read reply and compares it with the photostore.
func (in *flickrInput) check(step int, data []byte) error {
	reply, err := xmlrpcStruct(data)
	if err != nil {
		return err
	}
	switch step {
	case 0:
		return checkPhotoList(reply, in.photos)
	case 1:
		p := in.pick
		if str(reply["id"]) != p.ID || str(reply["title"]) != p.Title ||
			str(reply["url"]) != p.URL || str(reply["owner"]) != p.Owner {
			return fmt.Errorf("%w: photo info %v, want %+v", errWrongReply, reply, p)
		}
	default:
		items, _ := reply["comments"].([]xmlrpc.Value)
		if len(items) != len(in.comments) {
			return fmt.Errorf("%w: %d comments, want %d", errWrongReply, len(items), len(in.comments))
		}
		for k, it := range items {
			c, _ := it.(map[string]xmlrpc.Value)
			want := in.comments[k]
			if str(c["id"]) != want.ID || str(c["text"]) != want.Text || str(c["author"]) != want.Author {
				return fmt.Errorf("%w: comment %v, want %+v", errWrongReply, c, want)
			}
		}
	}
	return nil
}

// checkPhotoList compares a Flickr photo list reply with the photos a
// direct photostore search returns.
func checkPhotoList(reply map[string]xmlrpc.Value, want []photostore.Photo) error {
	photos, _ := reply["photos"].([]xmlrpc.Value)
	if len(photos) != len(want) {
		return fmt.Errorf("%w: %d photos, want %d", errWrongReply, len(photos), len(want))
	}
	for k, v := range photos {
		p, _ := v.(map[string]xmlrpc.Value)
		w := want[k]
		if str(p["id"]) != w.ID || str(p["title"]) != w.Title || str(p["owner"]) != w.Owner {
			return fmt.Errorf("%w: photo %d is %v, want %+v", errWrongReply, k, p, w)
		}
	}
	return nil
}

func (f *flickrFixture) native() *session {
	return &session{w: &wire{addr: f.svc.Addr(), framer: network.HTTPFramer{}}, run: func(w *wire, i int) error {
		in := &f.plan[i%len(f.plan)]
		for step, req := range in.native {
			data, err := w.roundTrip(req)
			if err != nil {
				return err
			}
			if err := checkStatus(data); err != nil {
				return fmt.Errorf("native %s: %w", flickrSteps[step], err)
			}
		}
		return nil
	}}
}

// audit checks every comment the mediated flows reported against the
// store: each must exist on its target photo with its text, and no
// other mediated comment may exist.
func (f *flickrFixture) audit() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var found, wrong int64
	for n := writeFirst + 1; n <= corpusSize; n++ {
		comments, err := f.store.Comments(photoID(n))
		if err != nil {
			return int64(len(f.added)) + 1
		}
		for _, c := range comments {
			w, ok := f.added[c.ID]
			switch {
			case !ok:
				wrong++
			case w.photo != c.PhotoID || w.text != c.Text || c.Author != mediatedAuthor:
				wrong++
				found++
			default:
				found++
			}
		}
	}
	return wrong + int64(len(f.added)) - found
}

func (f *flickrFixture) close() { f.svc.Close() }

// ---- request encoding and reply decoding shared by the workloads ----

func xmlrpcRequest(path, method string, params map[string]xmlrpc.Value) ([]byte, error) {
	body, err := xmlrpc.MarshalCall(method, params)
	if err != nil {
		return nil, err
	}
	r := &httpwire.Request{Method: "POST", Target: path,
		Headers: map[string]string{"Host": "mediator", "Content-Type": "text/xml"}, Body: body}
	return r.Marshal(), nil
}

func restGet(target string) []byte {
	r := &httpwire.Request{Method: "GET", Target: target, Headers: map[string]string{"Host": "picasa"}}
	return r.Marshal()
}

func restAddComment(photo, text string) ([]byte, error) {
	body, err := rest.MarshalEntry(rest.Entry{Summary: text})
	if err != nil {
		return nil, err
	}
	r := &httpwire.Request{Method: "POST", Target: rest.PhotoPath(photo),
		Headers: map[string]string{"Host": "picasa", "Content-Type": "application/atom+xml"}, Body: body}
	return r.Marshal(), nil
}

func searchTarget(q string, per int) string {
	return rest.BasePath + "/all?q=" + url.QueryEscape(q) + "&max-results=" + strconv.Itoa(per)
}

// checkStatus accepts an HTTP reply with a 2xx status.
func checkStatus(data []byte) error {
	resp, err := httpwire.ParseResponse(data)
	if err != nil {
		return err
	}
	if resp.Status/100 != 2 {
		return fmt.Errorf("%w: HTTP %d: %s", errWrongReply, resp.Status, resp.Body)
	}
	return nil
}

// xmlrpcStruct decodes an XML-RPC reply whose result is a struct.
func xmlrpcStruct(data []byte) (map[string]xmlrpc.Value, error) {
	resp, err := httpwire.ParseResponse(data)
	if err != nil {
		return nil, err
	}
	if resp.Status != 200 {
		return nil, fmt.Errorf("%w: HTTP %d", errWrongReply, resp.Status)
	}
	v, err := xmlrpc.ParseResponse(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errWrongReply, err)
	}
	m, ok := v.(map[string]xmlrpc.Value)
	if !ok {
		return nil, fmt.Errorf("%w: result is %T, not a struct", errWrongReply, v)
	}
	return m, nil
}

func str(v xmlrpc.Value) string {
	s, _ := v.(string)
	return s
}
