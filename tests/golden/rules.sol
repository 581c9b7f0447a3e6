pragma solidity ^0.4.24;

uint constant OFFSET =+ 1;

contract Ledger {
    struct Entry { uint amount; address who; }

    mapping(address => uint256) public balances;
    mapping(address => mapping(address => uint256)) public allowed;
    int public drift;
    uint public floor =- 1;
    uint public cap =+ 2;
    address public owner;

    modifier bumps(uint by) {
        uint seen;
        seen =+ by;
        _;
    }

    function payout(int delta, address to, uint256 amount) public {
        balances[to] += amount;
        uint step = uint(delta);
        balances[msg.sender] =+ step;
    }

    function settle() public {
        Entry e;
        e.amount = uint(drift);
        msg.sender.call.value(e.amount)();
        balances[msg.sender] = 0;
    }

    function claim(bytes32 h, uint8 v, bytes32 r, bytes32 s) public {
        address signer = ecrecover(h, v, r, s);
        require(signer == owner);
        balances[signer] = 1;
    }

    function approve(address spender, uint256 value) public returns (bool) {
        allowed[msg.sender][spender] = value;
        return true;
    }
}

contract Pool is Ledger {
    uint[] history;

    function drain(address dest, uint256 value) public {
        uint[] log;
        log.push(value);
        dest.transfer(value);
        balances[dest] += value;
        int local = -1;
        history.push(uint((local)));
    }

    function exit() public {
        uint256 owed = balances[msg.sender];
        msg.sender.call.value(owed)();
        balances[msg.sender] = 0;
    }

    function verify(bytes32 h, uint8 v, bytes32 r, bytes32 s, address who) public view returns (bool) {
        return ecrecover(h, v, r, s) == who;
    }

    function approve(address, uint256 value) public returns (bool) {
        allowed[msg.sender][msg.sender] = value;
        return true;
    }
}
