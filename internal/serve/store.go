package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"m3d/internal/errs"
)

// JobStore is the pluggable persistence behind the async job tier: one
// record per job (the request, its lifecycle state and, once done, its
// result) and one blob per artifact (a flow job's DEF and report). All
// methods must be safe for concurrent use; a missing job or blob is
// reported with an error matching errs.ErrNotFound.
//
// The contract the resume path relies on: PutJob and PutStage are
// atomic at the entry level — a reader (or a server restarted after a
// crash) sees either the previous blob or the new one, never a torn
// write. A job writes its artifacts before its terminal record, so a
// job interrupted in between re-runs and may rewrite an artifact, always
// with identical bytes.
type JobStore interface {
	// PutJob durably writes the job record for id.
	PutJob(id string, record []byte) error
	// GetJob reads the job record for id.
	GetJob(id string) ([]byte, error)
	// ListJobs returns every stored job id (any order).
	ListJobs() ([]string, error)
	// PutStage durably writes one named blob of job id.
	PutStage(id, stage string, payload []byte) error
	// GetStage reads one named blob of job id.
	GetStage(id, stage string) ([]byte, error)
	// DeleteJob removes the record and every blob of id (no error when
	// absent).
	DeleteJob(id string) error
}

// storeNotFound builds the shared missing-entity error.
func storeNotFound(what, id string) error {
	return fmt.Errorf("serve: %s %q: %w", what, id, errs.ErrNotFound)
}

// MemJobStore is the in-memory JobStore: process-lifetime persistence
// only, the default when a Server is built without a store. The zero
// value is ready to use.
type MemJobStore struct {
	mu     sync.RWMutex
	jobs   map[string][]byte
	stages map[string]map[string][]byte
}

// NewMemJobStore returns an empty in-memory store.
func NewMemJobStore() *MemJobStore { return &MemJobStore{} }

// PutJob implements JobStore.
func (m *MemJobStore) PutJob(id string, record []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.jobs == nil {
		m.jobs = make(map[string][]byte)
	}
	m.jobs[id] = append([]byte(nil), record...)
	return nil
}

// GetJob implements JobStore.
func (m *MemJobStore) GetJob(id string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	b, ok := m.jobs[id]
	if !ok {
		return nil, storeNotFound("job", id)
	}
	return append([]byte(nil), b...), nil
}

// ListJobs implements JobStore.
func (m *MemJobStore) ListJobs() ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ids := make([]string, 0, len(m.jobs))
	for id := range m.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

// PutStage implements JobStore.
func (m *MemJobStore) PutStage(id, stage string, payload []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stages == nil {
		m.stages = make(map[string]map[string][]byte)
	}
	if m.stages[id] == nil {
		m.stages[id] = make(map[string][]byte)
	}
	m.stages[id][stage] = append([]byte(nil), payload...)
	return nil
}

// GetStage implements JobStore.
func (m *MemJobStore) GetStage(id, stage string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	b, ok := m.stages[id][stage]
	if !ok {
		return nil, storeNotFound("stage", id+"/"+stage)
	}
	return append([]byte(nil), b...), nil
}

// DeleteJob implements JobStore.
func (m *MemJobStore) DeleteJob(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.jobs, id)
	delete(m.stages, id)
	return nil
}

// DirJobStore is the filesystem JobStore: one directory per job holding
// job.json plus one stage.<name>.bin per blob. Every write lands via
// create-temp + fsync + rename + directory fsync, so a crash or a power
// loss mid-write leaves either the old entry or the new one — never a
// torn blob — which is what lets a restarted server trust whatever
// records it finds. This is the store cmd/m3dserve mounts with
// -jobstore.
type DirJobStore struct {
	dir string
	mu  sync.Mutex // serializes temp-name generation per process
	seq int
}

// NewDirJobStore returns a store rooted at dir, creating it when absent.
func NewDirJobStore(dir string) (*DirJobStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: job store: %w", err)
	}
	return &DirJobStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (d *DirJobStore) Dir() string { return d.dir }

// jobDir maps an id to its directory, refusing path-escaping ids.
func (d *DirJobStore) jobDir(id string) (string, error) {
	if id == "" || strings.ContainsAny(id, "/\\") || strings.Contains(id, "..") {
		return "", fmt.Errorf("serve: job store: unusable id %q: %w", id, errs.ErrBadSpec)
	}
	return filepath.Join(d.dir, id), nil
}

// write durably persists one blob at path: the temp file is fsynced
// before the rename and the directory after it, so the new entry
// survives power loss, not just a process crash.
func (d *DirJobStore) write(path string, blob []byte) error {
	d.mu.Lock()
	d.seq++
	tmp := fmt.Sprintf("%s.tmp%d", path, d.seq)
	d.mu.Unlock()
	if err := writeSynced(tmp, blob); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: job store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: job store: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("serve: job store: %w", err)
	}
	return nil
}

// writeSynced creates path with blob and fsyncs it before closing.
func writeSynced(path string, blob []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory, making the entries created or renamed in
// it durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// PutJob implements JobStore.
func (d *DirJobStore) PutJob(id string, record []byte) error {
	dir, err := d.jobDir(id)
	if err != nil {
		return err
	}
	switch err := os.Mkdir(dir, 0o755); {
	case err == nil:
		// A new job directory is an entry of the root: make it durable
		// before anything is written inside it.
		if err := syncDir(d.dir); err != nil {
			return fmt.Errorf("serve: job store: %w", err)
		}
	case !os.IsExist(err):
		return fmt.Errorf("serve: job store: %w", err)
	}
	return d.write(filepath.Join(dir, "job.json"), record)
}

// GetJob implements JobStore.
func (d *DirJobStore) GetJob(id string) ([]byte, error) {
	dir, err := d.jobDir(id)
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(filepath.Join(dir, "job.json"))
	if os.IsNotExist(err) {
		return nil, storeNotFound("job", id)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: job store: %w", err)
	}
	return b, nil
}

// ListJobs implements JobStore.
func (d *DirJobStore) ListJobs() ([]string, error) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("serve: job store: %w", err)
	}
	var ids []string
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(d.dir, e.Name(), "job.json")); err == nil {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// stagePath maps a blob name to its file, refusing names that would
// escape the job directory.
func (d *DirJobStore) stagePath(id, stage string) (string, error) {
	dir, err := d.jobDir(id)
	if err != nil {
		return "", err
	}
	if stage == "" || strings.ContainsAny(stage, "/\\") || strings.Contains(stage, "..") {
		return "", fmt.Errorf("serve: job store: unusable stage %q: %w", stage, errs.ErrBadSpec)
	}
	return filepath.Join(dir, "stage."+stage+".bin"), nil
}

// PutStage implements JobStore.
func (d *DirJobStore) PutStage(id, stage string, payload []byte) error {
	path, err := d.stagePath(id, stage)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("serve: job store: %w", err)
	}
	return d.write(path, payload)
}

// GetStage implements JobStore.
func (d *DirJobStore) GetStage(id, stage string) ([]byte, error) {
	path, err := d.stagePath(id, stage)
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, storeNotFound("stage", id+"/"+stage)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: job store: %w", err)
	}
	return b, nil
}

// DeleteJob implements JobStore.
func (d *DirJobStore) DeleteJob(id string) error {
	dir, err := d.jobDir(id)
	if err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("serve: job store: %w", err)
	}
	return nil
}
