// R3 fixture: cloning payload bytes per hop in the cluster client — the
// hot-path file the rule's list used to miss.

pub struct Resp {
    pub value: Vec<u8>,
}

pub fn digest_input(resp: &Resp) -> Vec<u8> {
    resp.value.clone()
}
