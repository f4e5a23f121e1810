package proxy

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"

	"sdb/internal/engine"
	"sdb/internal/secure"
	"sdb/internal/sies"
	"sdb/internal/types"
)

// The data-owner state file is the proxy half of a durable deployment: the
// WAL at the service provider preserves shares and tokens, and this file
// preserves the only things that can decrypt them — the scheme secret, the
// SIES row-id key, the per-table column keys — plus a row-id nonce floor.
// It contains every secret the DO owns; it must never be co-located with
// the SP's data directory in a real deployment (embedded mem:// engines
// keep both sides in one process, so the driver stores them side by side).

// stateVersion guards the file layout.
const stateVersion = 1

// nonceRestartSkip is added to the persisted nonce floor on every load.
// The floor in the file can be stale by however many row ids the crashed
// process drew after its last save; skipping a generous window guarantees
// a restarted proxy never reuses a SIES nonce (reuse of the additive pad
// would leak the XOR of two row ids).
const nonceRestartSkip = 1 << 32

type proxyState struct {
	Version int             `json:"version"`
	Secret  json.RawMessage `json:"secret"`
	SIESKey []byte          `json:"sies_key"`
	// NonceFloor is the highest row-id nonce drawn at save time.
	NonceFloor uint64 `json:"nonce_floor"`
	// Tables maps lower-cased table names to their key metadata.
	Tables map[string]*TableMeta `json:"tables"`
}

// SaveState atomically writes the proxy's complete secret state to path,
// and fsyncs the directory so a crash cannot undo the rename. A key change
// in flight is saved as writeAhead wrote it. The nonce skip on load
// tolerates a stale floor, so callers may also save at shutdown.
func (p *Proxy) SaveState(path string) error {
	p.saveMu.Lock()
	defer p.saveMu.Unlock()
	secretJSON, err := json.Marshal(p.secret)
	if err != nil {
		return err
	}
	st := proxyState{
		Version:    stateVersion,
		Secret:     secretJSON,
		SIESKey:    p.cipher.Key(),
		NonceFloor: p.nonce.Load(),
		Tables:     p.store.All(),
	}
	maps.Copy(st.Tables, p.ahead)
	data, err := json.MarshalIndent(&st, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	if _, err = f.Write(append(data, '\n')); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// persistState saves the proxy state to Options.StatePath if one is
// configured. writeAhead and execDrop are its only callers.
func (p *Proxy) persistState() error {
	if p.statePath == "" {
		return nil
	}
	return p.SaveState(p.statePath)
}

// writeAhead is the DO's one persistence rule for a key change SP shares
// will depend on: persist next (a CREATE's keys, or a rotation's old keys
// plus the pending new one), run sql at the SP, then publish the outcome
// and persist it without the pending entry. A rotation whose UPDATE
// failed is settled by a probe, as the SP may have committed before its
// answer was lost. If the last write fails, the new key stays published
// and the pending entry on disk, for the next save or a restart to settle.
func (p *Proxy) writeAhead(table string, next *TableMeta, sql string) error {
	if !p.setAhead(table, next) {
		return fmt.Errorf("proxy: table %q has a key change in flight, or one to settle by reopening the proxy", table)
	}
	if err := p.persistState(); err != nil {
		p.setAhead(table, nil)
		return err
	}
	_, err := p.exec.ExecuteSQL(sql)
	applied := err == nil
	if err != nil && next.Pending != nil {
		var serr error
		if applied, serr = p.settle(table, next); serr != nil {
			return errors.Join(err, serr) // next stays ahead, in every later save
		}
	}
	if applied {
		p.store.publish(table, next.settled(true))
		err = nil
	}
	p.setAhead(table, nil)
	if werr := p.persistState(); err == nil {
		err = werr
	}
	return err
}

// setAhead makes next table's entry in ahead unless it has one; nil
// removes the entry.
func (p *Proxy) setAhead(table string, next *TableMeta) bool {
	p.saveMu.Lock()
	defer p.saveMu.Unlock()
	name := strings.ToLower(table)
	if next == nil {
		delete(p.ahead, name)
	} else if _, ok := p.ahead[name]; ok {
		return false
	} else {
		p.ahead[name] = next
	}
	return true
}

// settle reports whether meta's pending rotation applies, the one place
// that decides it. One stored share of the column, with its row id,
// decodes inside the plaintext domain (an int64, or for the mask a
// positive value under 128 bits; a wrong key with probability about
// 2^129/n) under exactly one of the old and the pending key, or the table
// and column are named in an error. No stored share: the pending key.
func (p *Proxy) settle(table string, meta *TableMeta) (applied bool, err error) {
	col := meta.Pending.Column
	fail := func(err error) (bool, error) {
		return false, fmt.Errorf("proxy: settling the rotation of %s.%s: %w", table, col, err)
	}
	oldKey, ok := meta.columnKey(col)
	if !ok {
		return fail(errors.New("not an encrypted column"))
	}
	res, err := p.exec.ExecuteSQL(fmt.Sprintf("SELECT %s, %s FROM %s WHERE %s IS NOT NULL LIMIT 1",
		col, engine.RowIDColumn, table, col))
	if err != nil {
		return fail(err)
	}
	if len(res.Rows) == 0 {
		return true, nil
	}
	row := res.Rows[0]
	if len(row) != 2 || row[0].K != types.KindShare || row[0].B == nil {
		return fail(errors.New("the probe did not return a share and a row id"))
	}
	rid, err := p.decryptRowID(row[1])
	if err != nil {
		return fail(err)
	}
	decodes := func(k secure.ColumnKey) bool {
		v := p.secret.Decrypt(row[0].B, rid, k)
		if col == MaskColumn {
			return v.Sign() > 0 && v.BitLen() <= 128
		}
		return v.IsInt64()
	}
	old, pending := decodes(oldKey), decodes(meta.Pending.Key)
	if old == pending {
		return fail(fmt.Errorf("a stored share decodes under %s key", map[bool]string{true: "each", false: "neither"}[old]))
	}
	return pending, nil
}

// LoadStateSecret reads just the scheme secret from a SaveState file. The
// embedded driver needs the public modulus to build the engine before it
// can construct the proxy the rest of the file feeds.
func LoadStateSecret(path string) (*secure.Secret, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var st proxyState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("proxy: bad state file %s: %w", path, err)
	}
	return secure.UnmarshalSecret(st.Secret)
}

// NewFromStateFile reconstructs a proxy from a SaveState file: same scheme
// secret, same SIES key (so recovered row ids decrypt), same column keys,
// and a nonce floor safely past anything the previous process could have
// drawn. A rotation the file holds as pending is settled against exec
// (settle); the file itself is not written.
func NewFromStateFile(path string, exec Executor, opts Options) (*Proxy, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var st proxyState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("proxy: bad state file %s: %w", path, err)
	}
	if st.Version != stateVersion {
		return nil, fmt.Errorf("proxy: unsupported state file version %d", st.Version)
	}
	secret, err := secure.UnmarshalSecret(st.Secret)
	if err != nil {
		return nil, err
	}
	cipher, err := sies.New(st.SIESKey, secure.RowIDBits)
	if err != nil {
		return nil, err
	}
	p, err := NewWithOptions(secret, exec, opts)
	if err != nil {
		return nil, err
	}
	p.cipher = cipher
	p.nonce.Store(st.NonceFloor + nonceRestartSkip)
	for name, meta := range st.Tables {
		if meta.Pending != nil {
			applied, err := p.settle(name, meta)
			if err != nil {
				return nil, err
			}
			meta = meta.settled(applied)
		}
		p.store.publish(name, meta)
	}
	return p, nil
}
