package proxy

import (
	"encoding/json"
	"fmt"
	"os"

	"sdb/internal/secure"
	"sdb/internal/sies"
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

// SaveState atomically writes the proxy's complete secret state to path.
// Call it after committing statements that change DO state (CREATE, INSERT,
// DROP, rotation) — or at shutdown; the nonce skip on load tolerates stale
// files.
func (p *Proxy) SaveState(path string) error {
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
	data, err := json.MarshalIndent(&st, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// persistState saves the proxy state to Options.StatePath if one is
// configured. Key-changing operations call it at the point where losing
// the in-memory state would strand encrypted data.
func (p *Proxy) persistState() error {
	if p.statePath == "" {
		return nil
	}
	return p.SaveState(p.statePath)
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
// drawn. Generations seed from the executor as in NewWithOptions.
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
	if st.Tables != nil {
		for name, meta := range st.Tables {
			if err := p.store.Put(name, meta); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}
