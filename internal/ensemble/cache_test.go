package ensemble

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCacheSingleflight(t *testing.T) {
	c := NewCache(0, nil)
	var builds atomic.Int64
	enter := make(chan struct{})
	release := make(chan struct{})

	const waiters = 8
	var wg sync.WaitGroup
	vals := make([]any, waiters)
	built := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, b, err := c.get(context.Background(), "k", func() (any, error) {
				builds.Add(1)
				enter <- struct{}{}
				<-release
				return "shared", nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], built[i] = v, b
		}(i)
	}
	<-enter // one goroutine is inside the build; the rest must wait
	close(release)
	wg.Wait()

	if builds.Load() != 1 {
		t.Fatalf("builds = %d, want 1", builds.Load())
	}
	builders := 0
	for i := range vals {
		if vals[i] != "shared" {
			t.Fatalf("waiter %d got %v", i, vals[i])
		}
		if built[i] {
			builders++
		}
	}
	if builders != 1 {
		t.Fatalf("%d callers report having built, want exactly 1", builders)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != waiters-1 {
		t.Fatalf("stats = %+v, want 1 miss / %d hits", st, waiters-1)
	}
}

func TestCacheLRUByteBound(t *testing.T) {
	// Each entry costs 4 bytes; the bound holds two entries.
	c := NewCache(8, func(v any) int64 { return 4 })
	get := func(key string) bool {
		_, built, err := c.get(context.Background(), key, func() (any, error) { return key, nil })
		if err != nil {
			t.Fatal(err)
		}
		return built
	}
	cached := func(key string) bool {
		_, ok := c.entries[key]
		return ok
	}
	get("a")
	get("b")
	get("c") // evicts a (LRU)
	if st := c.Stats(); st.Evictions != 1 || st.Bytes != 8 || st.Entries != 2 {
		t.Fatalf("stats after third insert = %+v", st)
	}
	if cached("a") {
		t.Fatal("a still cached, want evicted")
	}
	if !cached("c") {
		t.Fatal("c missing")
	}
	// b is recent; touching it then inserting d must evict c... after
	// touching, recency is b > c.
	get("b")
	get("d") // evicts c
	if !cached("b") {
		t.Fatal("b evicted despite being most recently used")
	}
	if cached("c") {
		t.Fatal("c still cached, want evicted")
	}
	if !get("a") {
		t.Fatal("rebuilding an evicted key did not run the build")
	}
}

func TestCacheErrorsNotRetained(t *testing.T) {
	c := NewCache(0, nil)
	calls := 0
	build := func() (any, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("transient")
		}
		return "ok", nil
	}
	if _, _, err := c.get(context.Background(), "k", build); err == nil {
		t.Fatal("want first build's error")
	}
	v, built, err := c.get(context.Background(), "k", build)
	if err != nil || v != "ok" || !built {
		t.Fatalf("retry after failed build: v=%v built=%v err=%v", v, built, err)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (error entry forgotten)", st.Entries)
	}
}

func TestCacheWaitRespectsContext(t *testing.T) {
	c := NewCache(0, nil)
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _, _ = c.get(context.Background(), "k", func() (any, error) {
			close(entered)
			<-release
			return "late", nil
		})
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.get(ctx, "k", func() (any, error) {
		t.Error("waiter must not rebuild")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(release)
	// The build still completed for future callers.
	if v, _, err := c.get(context.Background(), "k", nil); err != nil || v != "late" {
		t.Fatalf("completed build lost: v=%v err=%v", v, err)
	}
}

func BenchmarkCacheHit(b *testing.B) {
	c := NewCache(0, nil)
	_, _, _ = c.get(context.Background(), "k", func() (any, error) { return 1, nil })
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := c.get(context.Background(), "k", nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func ExampleCache() {
	c := NewCache(0, nil)
	for i := 0; i < 3; i++ {
		v, built, _ := c.get(context.Background(), "placement", func() (any, error) {
			return "expensive", nil
		})
		fmt.Println(v, built)
	}
	// Output:
	// expensive true
	// expensive false
	// expensive false
}
